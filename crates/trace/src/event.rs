//! The typed event vocabulary recorded by the span sink.
//!
//! Every event is stamped in *modeled seconds* (the simulated cluster's
//! deterministic clock), and lanes are identified by the *global* GPU
//! index `g` in `0..num_ranks * gpus_per_rank`; the owning rank is
//! `g / gpus_per_rank`.

/// One of the paper's four runtime phases, as seen by the tracer.
///
/// Mirrors the cluster crate's `Phase` enum; redefined here so the trace
/// crate stays dependency-free (it sits *below* `gcbfs-cluster` in the
/// dependency graph).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PhaseTag {
    /// Local kernel execution (both streams).
    Computation,
    /// Intra-rank staging: binning, local all2all, local mask reduce.
    LocalComm,
    /// Point-to-point normal-vertex exchange over the network.
    RemoteNormal,
    /// Global delegate mask reduction across ranks.
    RemoteDelegate,
}

impl PhaseTag {
    /// All phases in reporting order.
    pub const ALL: [PhaseTag; 4] = [
        PhaseTag::Computation,
        PhaseTag::LocalComm,
        PhaseTag::RemoteNormal,
        PhaseTag::RemoteDelegate,
    ];

    /// Stable machine-readable label (used by both exporters).
    pub fn label(self) -> &'static str {
        match self {
            PhaseTag::Computation => "computation",
            PhaseTag::LocalComm => "local_comm",
            PhaseTag::RemoteNormal => "remote_normal",
            PhaseTag::RemoteDelegate => "remote_delegate",
        }
    }
}

/// The kernel a span belongs to, refined by subgraph pairing.
///
/// `VisitXy` names the subgraph pairing of §IV: source partition `x`,
/// destination partition `y`, with `n` = normal vertices and `d` =
/// delegates.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum KernelTag {
    /// Previsit over the normal-vertex frontier.
    PrevisitNormal,
    /// Previsit over the delegate frontier.
    PrevisitDelegate,
    /// normal→normal visit kernel.
    VisitNn,
    /// normal→delegate visit kernel.
    VisitNd,
    /// delegate→normal visit kernel.
    VisitDn,
    /// delegate→delegate visit kernel.
    VisitDd,
    /// Mask bookkeeping after the delegate reduction.
    MaskOps,
    /// Payload encoding before a compressed exchange.
    Compress,
    /// Payload decoding after a compressed exchange.
    Decompress,
}

impl KernelTag {
    /// Stable machine-readable label.
    pub fn label(self) -> &'static str {
        match self {
            KernelTag::PrevisitNormal => "previsit_normal",
            KernelTag::PrevisitDelegate => "previsit_delegate",
            KernelTag::VisitNn => "visit_nn",
            KernelTag::VisitNd => "visit_nd",
            KernelTag::VisitDn => "visit_dn",
            KernelTag::VisitDd => "visit_dd",
            KernelTag::MaskOps => "mask_ops",
            KernelTag::Compress => "compress",
            KernelTag::Decompress => "decompress",
        }
    }

    /// Whether the kernel's `work` counts traversed edges (the visit
    /// kernels) as opposed to vertices or bytes.
    pub fn counts_edges(self) -> bool {
        matches!(
            self,
            KernelTag::VisitNn | KernelTag::VisitNd | KernelTag::VisitDn | KernelTag::VisitDd
        )
    }
}

/// Traversal direction of a visit kernel.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DirTag {
    /// Forward (push) traversal.
    Forward,
    /// Backward (pull) traversal.
    Backward,
    /// Direction does not apply (previsit, mask ops, codecs).
    NotApplicable,
}

impl DirTag {
    /// One-character rendering: `F`, `B` or `-`.
    pub fn as_char(self) -> char {
        match self {
            DirTag::Forward => 'F',
            DirTag::Backward => 'B',
            DirTag::NotApplicable => '-',
        }
    }
}

/// Which of the two per-GPU execution streams a kernel ran on (§IV-C:
/// the normal and delegate subgraphs execute on concurrent streams).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum StreamTag {
    /// The normal-subgraph stream.
    Normal,
    /// The delegate-subgraph stream.
    Delegate,
}

impl StreamTag {
    /// Stable machine-readable label.
    pub fn label(self) -> &'static str {
        match self {
            StreamTag::Normal => "normal",
            StreamTag::Delegate => "delegate",
        }
    }
}

/// Transport class of a point-to-point message.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Channel {
    /// NVLink-class transfer between GPUs of the same rank.
    IntraRank,
    /// InfiniBand-class transfer between GPUs of different ranks.
    CrossRank,
}

impl Channel {
    /// Stable machine-readable label.
    pub fn label(self) -> &'static str {
        match self {
            Channel::IntraRank => "intra_rank",
            Channel::CrossRank => "cross_rank",
        }
    }
}

/// What a message carries.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum MessageKind {
    /// A binned batch of normal-vertex updates (§V-B exchange).
    NnUpdate,
    /// One hop of the delegate mask reduction (§V-A collective).
    MaskReduce,
}

impl MessageKind {
    /// Stable machine-readable label.
    pub fn label(self) -> &'static str {
        match self {
            MessageKind::NnUpdate => "nn_update",
            MessageKind::MaskReduce => "mask_reduce",
        }
    }
}

/// A kernel execution reported by a GPU worker for one iteration,
/// *before* the sink assigns it a modeled-time interval.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct KernelEvent {
    /// Which kernel ran.
    pub tag: KernelTag,
    /// Traversal direction, if the kernel has one.
    pub dir: DirTag,
    /// Execution stream.
    pub stream: StreamTag,
    /// Work units processed: edges for visit kernels, vertices for
    /// previsits, bytes for mask ops and codecs.
    pub work: u64,
    /// Modeled seconds charged for the kernel.
    pub seconds: f64,
}

/// Per-lane phase seconds handed to the sink for one iteration — the
/// *final* per-GPU values whose element-wise maximum is the cluster's
/// `IterationTiming` for that iteration.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LanePhases {
    /// Seconds of local kernel execution on this GPU.
    pub computation: f64,
    /// Seconds of intra-rank staging attributed to this GPU.
    pub local_comm: f64,
    /// Seconds of cross-rank normal exchange attributed to this GPU.
    pub remote_normal: f64,
}

/// A stage of the pipelined nn-exchange (encode → transfer → decode);
/// recorded only when compute/comm overlap is on.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum StageTag {
    /// Sender-side staging: binning, local all2all, uniquify, codec
    /// encode — everything that must finish before bytes hit the wire.
    Encode,
    /// The cross-rank wire transfer itself.
    Transfer,
    /// Receiver-side codec decode.
    Decode,
}

impl StageTag {
    /// Stable machine-readable label.
    pub fn label(self) -> &'static str {
        match self {
            StageTag::Encode => "encode",
            StageTag::Transfer => "transfer",
            StageTag::Decode => "decode",
        }
    }
}

/// Per-lane stage seconds of the pipelined nn-exchange for one
/// iteration, handed to the sink alongside [`LanePhases`] when overlap
/// is on. Encode and decode partition this lane's `local_comm` (up to
/// float association); the transfer stage duration is the lane's
/// `remote_normal`.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LaneStages {
    /// Seconds of sender-side staging (binning/all2all/uniquify/encode).
    pub encode: f64,
    /// Seconds of receiver-side decode.
    pub decode: f64,
}

/// A pipeline-stage interval on one GPU lane, in modeled seconds.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StageSpan {
    /// Global GPU index of the lane.
    pub gpu: u32,
    /// BFS iteration the span belongs to.
    pub iter: u32,
    /// Which pipeline stage.
    pub stage: StageTag,
    /// Modeled start time.
    pub start: f64,
    /// Modeled duration.
    pub dur: f64,
}

/// A point-to-point message as reported by the exchange layer, before
/// the sink timestamps it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MessageRecord {
    /// Sending global GPU index.
    pub src: u32,
    /// Receiving global GPU index.
    pub dst: u32,
    /// Payload size before any encoding, in bytes.
    pub raw_bytes: u64,
    /// Bytes actually placed on the wire (encoded size + header for
    /// compressed cross-rank messages; equals `raw_bytes` otherwise).
    pub wire_bytes: u64,
    /// Whether the transfer stayed within one rank.
    pub intra: bool,
}

/// One hop of a rank-level collective (the delegate mask reduction).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CollectiveHop {
    /// Sending rank.
    pub src_rank: u32,
    /// Receiving rank.
    pub dst_rank: u32,
    /// Un-encoded mask bytes the hop represents.
    pub raw_bytes: u64,
    /// Bytes charged on the wire for the hop.
    pub wire_bytes: u64,
}

/// A phase interval on one GPU lane, in modeled seconds.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PhaseSpan {
    /// Global GPU index of the lane.
    pub gpu: u32,
    /// BFS iteration the span belongs to.
    pub iter: u32,
    /// Which phase.
    pub phase: PhaseTag,
    /// Modeled start time.
    pub start: f64,
    /// Modeled duration.
    pub dur: f64,
}

/// A kernel interval on one GPU stream, in modeled seconds.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct KernelSpan {
    /// Global GPU index.
    pub gpu: u32,
    /// BFS iteration.
    pub iter: u32,
    /// Execution stream.
    pub stream: StreamTag,
    /// Which kernel.
    pub tag: KernelTag,
    /// Traversal direction, if any.
    pub dir: DirTag,
    /// Work units processed (edges for visit kernels).
    pub work: u64,
    /// Modeled start time.
    pub start: f64,
    /// Modeled duration.
    pub dur: f64,
}

/// A timestamped point-to-point message event.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MessageEvent {
    /// BFS iteration.
    pub iter: u32,
    /// Modeled timestamp (the start of the phase that pays for it).
    pub ts: f64,
    /// Sending global GPU index.
    pub src: u32,
    /// Receiving global GPU index.
    pub dst: u32,
    /// Transport class.
    pub channel: Channel,
    /// What the message carries.
    pub kind: MessageKind,
    /// Payload size before encoding.
    pub raw_bytes: u64,
    /// Bytes charged on the wire.
    pub wire_bytes: u64,
}

/// The kind of a resilience event.
///
/// Everything except [`FaultKind::Checkpoint`] is charged to
/// `FaultStats::recovery_seconds`; checkpoints have their own bucket.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FaultKind {
    /// A checkpoint capture (charged to `FaultStats::checkpoint_seconds`).
    Checkpoint,
    /// A retried collective or exchange after injected corruption.
    Retry,
    /// A rollback to the last checkpoint (after a fail-stop, including its
    /// detection, or on the SDC ladder).
    Recovery,
    /// Promotion of a hot spare: graph partition reload plus checkpoint
    /// state ship plus delegate-mask re-replication.
    SpareAbsorb,
    /// Installation of a multi-survivor spreading plan for a dead
    /// member's partition (the one-time state ship to the hosts).
    Spread,
    /// An online verification check caught silent data corruption (the
    /// detection itself; zero-duration — the scan cost is charged to the
    /// superstep's computation phase, not to recovery).
    SdcDetect,
    /// Re-execution of a superstep from its device-side shadow state
    /// after a verification check fired (the first escalation rung).
    SdcReexecute,
}

impl FaultKind {
    /// Stable machine-readable label.
    pub fn label(self) -> &'static str {
        match self {
            FaultKind::Checkpoint => "checkpoint",
            FaultKind::Retry => "retry",
            FaultKind::Recovery => "recovery",
            FaultKind::SpareAbsorb => "spare_absorb",
            FaultKind::Spread => "spread",
            FaultKind::SdcDetect => "sdc_detect",
            FaultKind::SdcReexecute => "sdc_reexecute",
        }
    }
}

/// A resilience interval on the runtime lane, in modeled seconds.
///
/// Fault spans are never discarded by a rollback: the time they account
/// for has already been charged to the run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultSpan {
    /// What happened.
    pub kind: FaultKind,
    /// Iteration during which the charge was made.
    pub iter: u32,
    /// Modeled start time.
    pub start: f64,
    /// Modeled duration (exactly the seconds charged to `FaultStats`).
    pub dur: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_stable() {
        assert_eq!(PhaseTag::RemoteDelegate.label(), "remote_delegate");
        assert_eq!(KernelTag::VisitDn.label(), "visit_dn");
        assert_eq!(FaultKind::Recovery.label(), "recovery");
        assert_eq!(Channel::CrossRank.label(), "cross_rank");
        assert_eq!(MessageKind::MaskReduce.label(), "mask_reduce");
        assert_eq!(StreamTag::Delegate.label(), "delegate");
        assert_eq!(StageTag::Encode.label(), "encode");
        assert_eq!(StageTag::Transfer.label(), "transfer");
        assert_eq!(StageTag::Decode.label(), "decode");
    }

    #[test]
    fn edge_counting_kernels() {
        assert!(KernelTag::VisitNn.counts_edges());
        assert!(KernelTag::VisitDd.counts_edges());
        assert!(!KernelTag::PrevisitNormal.counts_edges());
        assert!(!KernelTag::MaskOps.counts_edges());
    }

    #[test]
    fn dir_chars() {
        assert_eq!(DirTag::Forward.as_char(), 'F');
        assert_eq!(DirTag::Backward.as_char(), 'B');
        assert_eq!(DirTag::NotApplicable.as_char(), '-');
    }
}
