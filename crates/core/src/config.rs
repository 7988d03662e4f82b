//! Run configuration: the tunables and options of §VI-B.
//!
//! The paper exposes one dominant parameter — the degree threshold `TH` —
//! plus a set of on/off options it ablates in Fig. 8: direction
//! optimization (DO), local all2all (L), uniquify (U), and blocking (BR)
//! vs non-blocking (IR) global delegate mask reduction. The three
//! DO-enabled subgraphs each carry their own pair of direction-switching
//! factors; the paper's tuned values `(0.5, 0.05, 1e-7)` for `dd`, `dn`,
//! `nd` are the defaults here.

use crate::kernels::KernelVariant;
use crate::recovery::RecoveryConfig;
use crate::verify::VerificationMode;
use gcbfs_cluster::cost::CostModel;
use gcbfs_compress::CompressionMode;
use gcbfs_trace::ObservabilityConfig;

/// Direction-switching factor pair for one subgraph kernel (§IV-B):
/// switch forward→backward when `FV > factor0 · BV`, and backward→forward
/// when `FV < factor1 · BV`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SwitchFactors {
    /// `factor0`: switch forward→backward when `FV > factor0 · BV`.
    pub forward_to_backward: f64,
    /// `factor1`: switch backward→forward when `FV < factor1 · BV`.
    pub backward_to_forward: f64,
}

impl SwitchFactors {
    /// A factor pair with hysteresis: `backward_to_forward` defaults to a
    /// tenth of `forward_to_backward`.
    pub fn new(forward_to_backward: f64) -> Self {
        Self { forward_to_backward, backward_to_forward: forward_to_backward / 10.0 }
    }
}

/// Configuration of a distributed BFS run.
#[derive(Clone, Copy, Debug)]
pub struct BfsConfig {
    /// Degree threshold `TH`: vertices with out-degree `> TH` become
    /// delegates (§III-A). The single most important tuning parameter.
    pub degree_threshold: u64,
    /// Direction optimization (DO): allow the `dd`, `dn`, `nd` kernels to
    /// switch to backward-pull. `nn` never uses DO (§IV-B).
    pub direction_optimization: bool,
    /// Local all2all (L): regroup normal-vertex traffic inside each rank so
    /// cross-rank pairs connect equal GPU slots only (§V-B).
    pub local_all2all: bool,
    /// Uniquify (U): deduplicate normal vertices bound for the same GPU
    /// before sending (§V-B; requires `local_all2all` to be useful, but is
    /// honored independently as in the paper's ablation).
    pub uniquify: bool,
    /// Blocking global mask reduction (BR, `MPI_Allreduce`) instead of
    /// non-blocking (IR, `MPI_Iallreduce`).
    pub blocking_reduce: bool,
    /// Per-kernel direction decisions (the paper's design: "the kernels
    /// switch for their own optimized conditions", §IV-B). When false, one
    /// combined FV/BV comparison drives all three DO kernels — the
    /// conventional global-direction scheme, kept as an ablation.
    pub per_kernel_direction: bool,
    /// Per-subgraph direction-switching factors; the paper's tuned values.
    pub dd_factors: SwitchFactors,
    /// Switching factors of the `dn` kernel.
    pub dn_factors: SwitchFactors,
    /// Switching factors of the `nd` kernel.
    pub nd_factors: SwitchFactors,
    /// The machine model used for modeled time.
    pub cost: CostModel,
    /// Communication compression for the two remote-byte producers: the
    /// nn-update exchange (§V-B's `4|Enn|` bytes) and the global delegate
    /// mask reduction (§V-A's `d/8`-byte messages). `Off` (the default)
    /// reproduces the paper's raw wire format bit-for-bit; `Adaptive`
    /// picks a codec per message from a density measurement, mirroring
    /// the direction-optimization crossover. Compression never changes
    /// BFS results — every payload really roundtrips its codec.
    pub compression: CompressionMode,
    /// Recovery policy for fault-injected runs: on/off, checkpoint cadence,
    /// and degraded mode (whether a loss with no free spare spreads onto
    /// the survivors or is fatal). Inert on fault-free runs: no
    /// checkpoints are taken and no retries happen unless a
    /// [`FaultPlan`](gcbfs_cluster::fault::FaultPlan) is supplied.
    pub recovery: RecoveryConfig,
    /// Structured observability: when `Full`, the driver threads a
    /// [`SpanSink`](gcbfs_trace::SpanSink) through the run and
    /// [`BfsResult::observed`](crate::driver::BfsResult::observed) carries
    /// the finished [`TraceLog`](gcbfs_trace::TraceLog). `Off` (the
    /// default) records nothing and leaves every seed-visible number
    /// bit-identical — no modeled-time arithmetic is added, removed or
    /// reordered by observation.
    pub observability: ObservabilityConfig,
    /// How the workers' kernels are priced. Both variants run the same
    /// word-parallel traversal (bitmask words 64 delegates at a time), so
    /// depths and parents are bit-identical;
    /// [`WordParallel`](KernelVariant::WordParallel) (the default) charges
    /// per word, [`Scalar`](KernelVariant::Scalar) prices the bit-serial
    /// pre-overhaul reference the `kernel_sweep` bench keeps as its
    /// regression baseline (per-bit probe charges on a derated device).
    pub kernel_variant: KernelVariant,
    /// Pipelined compute/communication overlap: when on, each superstep
    /// charges `max(kernel_time, encode + transfer + decode)` instead of
    /// their sum — the nn-exchange pipeline runs on the copy engines
    /// while the visit kernels execute. Off (the default) reproduces the
    /// serial charging rule bit-for-bit. Never changes BFS results, only
    /// modeled time.
    pub overlap: bool,
    /// Online silent-data-corruption verification: `Off` (the default)
    /// runs no checks and is bit-identical to a build without the
    /// verification layer; `Checksums` piggybacks ABFT checksums and
    /// conservation counts on the termination allreduce; `Full` adds
    /// shadow settle digests and depth-monotonicity scans, catching any
    /// single-bit corruption of settled state. Detections escalate
    /// re-execute → rollback → typed error (see
    /// [`verify`](crate::verify)).
    pub verification: VerificationMode,
}

impl BfsConfig {
    /// A configuration with the paper's defaults and the given `TH`.
    ///
    /// The paper switched from `MPI_Iallreduce` to `MPI_Allreduce` above 16
    /// GPUs; callers reproduce that by flipping
    /// [`BfsConfig::with_blocking_reduce`] along the scaling sweep.
    pub fn new(degree_threshold: u64) -> Self {
        Self {
            degree_threshold,
            direction_optimization: true,
            local_all2all: false,
            uniquify: false,
            blocking_reduce: true,
            per_kernel_direction: true,
            // The paper tuned (0.5, 0.05, 1e-7) for dd/dn/nd at its
            // scale-26-per-GPU operating point (§VI-B) and found wide
            // near-optimal plateaus. Re-running the same factor scan at
            // this reproduction's reduced scale finds the same plateaus
            // for dd and dn, but nd's plateau sits at [1e-3, 0.5]: with
            // tiny first-iteration frontiers, 1e-7 fires the backward nd
            // pass one iteration too early. 0.05 is used for both dn and
            // nd; `with_paper_factors` restores the paper's exact values.
            dd_factors: SwitchFactors::new(0.5),
            dn_factors: SwitchFactors::new(0.05),
            nd_factors: SwitchFactors::new(0.05),
            cost: CostModel::ray(),
            compression: CompressionMode::Off,
            recovery: RecoveryConfig::default(),
            observability: ObservabilityConfig::Off,
            kernel_variant: KernelVariant::default(),
            overlap: false,
            verification: VerificationMode::Off,
        }
    }

    /// Restores the paper's exact direction-switching factors
    /// `(0.5, 0.05, 1e-7)` — tuned for its full-scale runs.
    pub fn with_paper_factors(mut self) -> Self {
        self.dd_factors = SwitchFactors::new(0.5);
        self.dn_factors = SwitchFactors::new(0.05);
        self.nd_factors = SwitchFactors::new(1e-7);
        self
    }

    /// Enables/disables direction optimization.
    pub fn with_direction_optimization(mut self, on: bool) -> Self {
        self.direction_optimization = on;
        self
    }

    /// Enables/disables the local-all2all regrouping.
    pub fn with_local_all2all(mut self, on: bool) -> Self {
        self.local_all2all = on;
        self
    }

    /// Enables/disables uniquification of the normal exchange.
    pub fn with_uniquify(mut self, on: bool) -> Self {
        self.uniquify = on;
        self
    }

    /// Selects blocking (`true`) vs non-blocking (`false`) mask reduction.
    pub fn with_blocking_reduce(mut self, blocking: bool) -> Self {
        self.blocking_reduce = blocking;
        self
    }

    /// Selects per-kernel (`true`, the paper's design) vs global (`false`,
    /// ablation) direction decisions.
    pub fn with_per_kernel_direction(mut self, per_kernel: bool) -> Self {
        self.per_kernel_direction = per_kernel;
        self
    }

    /// Replaces the machine model.
    pub fn with_cost_model(mut self, cost: CostModel) -> Self {
        self.cost = cost;
        self
    }

    /// Replaces the recovery policy.
    pub fn with_recovery(mut self, recovery: RecoveryConfig) -> Self {
        self.recovery = recovery;
        self
    }

    /// Selects the communication-compression mode.
    pub fn with_compression(mut self, compression: CompressionMode) -> Self {
        self.compression = compression;
        self
    }

    /// Selects the observability mode (span/message/fault recording).
    pub fn with_observability(mut self, observability: ObservabilityConfig) -> Self {
        self.observability = observability;
        self
    }

    /// Selects the online verification tier (SDC detection).
    pub fn with_verification(mut self, verification: VerificationMode) -> Self {
        self.verification = verification;
        self
    }

    /// Selects the kernel implementation variant.
    pub fn with_kernel_variant(mut self, variant: KernelVariant) -> Self {
        self.kernel_variant = variant;
        self
    }

    /// Enables/disables pipelined compute/communication overlap.
    pub fn with_overlap(mut self, on: bool) -> Self {
        self.overlap = on;
        self
    }

    /// The suggested degree threshold for an RMAT graph of `scale`
    /// (Fig. 7): near-optimal `TH` grows by about √2 per scale, anchored at
    /// `TH = 64` for scale 30.
    pub fn suggested_rmat_threshold(scale: u32) -> u64 {
        let th = 64.0 * 2f64.powf((scale as f64 - 30.0) / 2.0);
        th.round().max(2.0) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_and_paper_factors() {
        let c = BfsConfig::new(64);
        assert_eq!(c.degree_threshold, 64);
        assert!(c.direction_optimization);
        assert_eq!(c.dd_factors.forward_to_backward, 0.5);
        assert_eq!(c.dn_factors.forward_to_backward, 0.05);
        assert_eq!(c.nd_factors.forward_to_backward, 0.05);
        let p = c.with_paper_factors();
        assert_eq!(p.nd_factors.forward_to_backward, 1e-7);
    }

    #[test]
    fn builders_flip_flags() {
        let c = BfsConfig::new(16)
            .with_direction_optimization(false)
            .with_local_all2all(true)
            .with_uniquify(true)
            .with_blocking_reduce(false);
        assert!(!c.direction_optimization);
        assert!(c.local_all2all);
        assert!(c.uniquify);
        assert!(!c.blocking_reduce);
    }

    #[test]
    fn suggested_threshold_anchors_at_scale_30() {
        assert_eq!(BfsConfig::suggested_rmat_threshold(30), 64);
        // ~sqrt(2) growth per scale.
        let t32 = BfsConfig::suggested_rmat_threshold(32);
        assert_eq!(t32, 128);
        let t26 = BfsConfig::suggested_rmat_threshold(26);
        assert_eq!(t26, 16);
    }

    #[test]
    fn recovery_knob_rides_along() {
        let c = BfsConfig::new(8);
        assert!(c.recovery.enabled, "recovery on by default");
        let c = c.with_recovery(RecoveryConfig::disabled());
        assert!(!c.recovery.enabled);
        assert!(!c.recovery.degraded_mode);
    }

    #[test]
    fn compression_defaults_off_and_flips() {
        let c = BfsConfig::new(8);
        assert_eq!(c.compression, CompressionMode::Off);
        assert!(!c.compression.is_on());
        let c = c.with_compression(CompressionMode::Adaptive);
        assert!(c.compression.is_on());
        assert_eq!(c.compression.label(), "adaptive");
    }

    #[test]
    fn observability_defaults_off_and_flips() {
        let c = BfsConfig::new(8);
        assert_eq!(c.observability, ObservabilityConfig::Off);
        let c = c.with_observability(ObservabilityConfig::Full);
        assert!(c.observability.is_on());
    }

    #[test]
    fn verification_defaults_off_and_flips() {
        let c = BfsConfig::new(8);
        assert_eq!(c.verification, VerificationMode::Off);
        assert!(!c.verification.is_on());
        let c = c.with_verification(VerificationMode::Full);
        assert!(c.verification.is_on() && c.verification.is_full());
        assert_eq!(c.verification.label(), "full");
    }

    #[test]
    fn kernel_variant_and_overlap_default_to_seed_behavior() {
        let c = BfsConfig::new(8);
        assert_eq!(c.kernel_variant, KernelVariant::WordParallel);
        assert!(!c.overlap);
        let c = c.with_kernel_variant(KernelVariant::Scalar).with_overlap(true);
        assert_eq!(c.kernel_variant, KernelVariant::Scalar);
        assert!(c.overlap);
    }

    #[test]
    fn switch_factors_hysteresis() {
        let f = SwitchFactors::new(0.5);
        assert!(f.backward_to_forward < f.forward_to_backward);
    }
}
