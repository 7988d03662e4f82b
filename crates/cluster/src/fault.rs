//! Deterministic fault injection for the simulated cluster (the "chaos
//! fabric").
//!
//! Distributed BFS at the paper's scale (hundreds of GPUs, thousands of
//! supersteps across a Graph500 sweep) runs long enough that fail-stop
//! device losses, flaky links, and congested NICs are operational
//! realities. This module provides a *seeded, reproducible* fault model so
//! the recovery machinery in `gcbfs-core` can be tested exhaustively:
//!
//! * [`FaultPlan`] — a declarative, serializable-in-spirit schedule of
//!   faults: a per-message drop probability, scheduled fail-stop GPU
//!   losses, delegate-mask word corruptions, and NIC bandwidth degradation
//!   windows. The same plan + seed always produces
//!   the same fault sequence, independent of host thread count.
//! * [`FaultInjector`] — the stateful interpreter of a plan. One-shot
//!   events (fail-stops, corruptions) remember that they fired, so a
//!   rollback-and-replay after recovery does not re-trigger them: recovery
//!   always terminates.
//! * [`FaultError`] — the typed detection results surfaced at superstep
//!   boundaries: a missed barrier (fail-stop), per-peer ack count mismatch
//!   (dropped messages), and mask checksum mismatch (corruption in the
//!   reduction).
//!
//! Message model: the exchange is bulk-synchronous, so an update is either
//! delivered once in the superstep it was sent or lost, and a loss leaves
//! the ack counts short and the whole exchange is retried. A copy that
//! arrived twice or late would change nothing the model prices, so there
//! are no such fates.
//!
//! Detection model: every superstep ends in a blocking collective (the
//! delegate-mask reduction and the termination flag), so a GPU that
//! fail-stops during superstep `i` is known dead at the first barrier it
//! misses, boundary `i` itself — the rule the real-process backend
//! applies to a worker whose connection closed. Per-peer ack counts
//! piggyback on the same collective, so every detection happens at
//! superstep granularity.

use crate::topology::Topology;

/// A typed fault detected at a superstep boundary.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FaultError {
    /// A GPU missed a superstep barrier and its loss could not be
    /// recovered.
    GpuFailed {
        /// Flat index of the failed GPU.
        gpu: usize,
        /// Iteration at which the loss was detected.
        iteration: u32,
    },
    /// Per-peer ack counts of the normal-vertex exchange disagree with the
    /// received updates (an update was dropped in flight).
    ExchangeMismatch {
        /// Iteration of the mismatching exchange.
        iteration: u32,
        /// Retry attempts already consumed when the error was surfaced.
        attempts: u32,
    },
    /// A delegate-mask message failed its checksum in the reduction.
    MaskChecksumMismatch {
        /// Iteration of the corrupted reduction.
        iteration: u32,
        /// Flat index of the GPU whose mask words were corrupted.
        gpu: usize,
    },
    /// A checkpoint snapshot failed its integrity seal when a rollback
    /// tried to restore it: recovery cannot proceed from poisoned state.
    CheckpointCorrupt {
        /// Iteration at which the rollback was attempted.
        iteration: u32,
        /// Flat index of the GPU whose snapshot failed verification.
        gpu: usize,
    },
    /// An online verification check caught silent data corruption but
    /// recovery is disabled, so the run cannot continue.
    SdcDetected {
        /// Iteration at which the check fired.
        iteration: u32,
        /// Name of the violated check (e.g. `"frontier-conservation"`).
        check: &'static str,
    },
    /// Silent data corruption persisted through every escalation stage
    /// (re-execution and rollback budgets exhausted): the fault is not
    /// transient and the run must abort rather than emit a wrong tree.
    SdcUnrecoverable {
        /// Iteration at which the final detection fired.
        iteration: u32,
        /// Name of the violated check (e.g. `"shadow-digest"`).
        check: &'static str,
    },
}

impl std::fmt::Display for FaultError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::GpuFailed { gpu, iteration } => {
                write!(f, "GPU {gpu} failed (missed the barrier of iteration {iteration})")
            }
            Self::ExchangeMismatch { iteration, attempts } => write!(
                f,
                "normal exchange ack mismatch at iteration {iteration} after {attempts} attempts"
            ),
            Self::MaskChecksumMismatch { iteration, gpu } => {
                write!(f, "delegate mask checksum mismatch from GPU {gpu} at iteration {iteration}")
            }
            Self::CheckpointCorrupt { iteration, gpu } => write!(
                f,
                "checkpoint snapshot of GPU {gpu} failed its integrity seal \
                 during rollback at iteration {iteration}"
            ),
            Self::SdcDetected { iteration, check } => write!(
                f,
                "silent data corruption detected by the {check} check at \
                 iteration {iteration} (recovery disabled)"
            ),
            Self::SdcUnrecoverable { iteration, check } => write!(
                f,
                "silent data corruption detected by the {check} check at \
                 iteration {iteration} persisted through re-execution and rollback"
            ),
        }
    }
}

impl std::error::Error for FaultError {}

/// A fault plan names a GPU the run does not have
/// ([`FaultPlan::check_gpus`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PlanError {
    /// The kind of the offending event (`"fail-stop"`, `"SDC event"`, ...).
    pub event: &'static str,
    /// The GPU it names.
    pub gpu: usize,
    /// The GPUs the run has.
    pub num_gpus: usize,
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let Self { event, gpu, num_gpus } = self;
        write!(f, "{event} names GPU {gpu}, but the run has {num_gpus} GPUs")
    }
}

impl std::error::Error for PlanError {}

/// A scheduled fail-stop loss of one GPU.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FailStop {
    /// Flat index of the GPU that dies.
    pub gpu: usize,
    /// The superstep during which it dies; it misses that superstep's
    /// barrier.
    pub iteration: u32,
}

/// A scheduled corruption of one delegate-mask word in transit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MaskCorruption {
    /// Flat index of the GPU whose outbound mask is corrupted.
    pub gpu: usize,
    /// First mask reduction at or after this iteration is hit.
    pub iteration: u32,
    /// Word index to corrupt (taken modulo the mask length).
    pub word: usize,
    /// Bits to flip (must be non-zero to have an effect).
    pub xor: u64,
}

/// A scheduled corruption of checkpointed state at rest: the snapshot
/// covering `iteration` has one delegate-mask word of `gpu` flipped.
/// Detection is the checkpoint's integrity seal, not a channel checksum.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CheckpointCorruption {
    /// Flat index of the GPU whose snapshotted mask is corrupted.
    pub gpu: usize,
    /// First checkpoint captured at or after this iteration is hit.
    pub iteration: u32,
    /// Word index to corrupt (taken modulo the mask length).
    pub word: usize,
    /// Bits to flip (must be non-zero to have an effect).
    pub xor: u64,
}

/// A window of degraded NIC bandwidth (congestion, link retraining).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NicDegradation {
    /// First affected iteration (inclusive).
    pub from_iteration: u32,
    /// First unaffected iteration (exclusive).
    pub until_iteration: u32,
    /// Slowdown factor applied to remote transfer times (`>= 1`).
    pub factor: f64,
}

/// Where a compute-SDC event lands. Unlike the wire corruptions above,
/// these strike *inside* a device: the bytes were never on a sealed
/// channel, so no transport checksum can catch them — only the online
/// verification layer (`gcbfs-core::verify`) can.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SdcSite {
    /// A settled depth in the GPU's `depths_local` array right after the
    /// visit kernels ran (a flipped bit in a kernel output buffer).
    KernelDepth,
    /// A word of the *reduced* delegate mask, after the allreduce combined
    /// all contributions — models the reduction itself computing a wrong
    /// word, which the per-message transport seals cannot see.
    ReducedMask,
    /// An entry silently dropped from a GPU's freshly produced next
    /// frontier (the depth was already written, the work item vanished).
    FrontierDrop,
    /// A word of a restored `depths_local` buffer flipped during the
    /// rollback copy, *after* the snapshot's integrity seal verified.
    RestoreBuffer,
}

/// How the corrupted word is perturbed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SdcMode {
    /// XOR the target with `bits` (transient upset; a re-execution from
    /// clean inputs produces the correct value).
    Flip,
    /// Overwrite the target with `bits` (stuck-at fault).
    Stuck,
}

/// A scheduled silent-data-corruption event inside one GPU.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SdcEvent {
    /// Flat index of the struck GPU.
    pub gpu: usize,
    /// First superstep at or after which the event fires.
    pub iteration: u32,
    /// Which buffer the corruption lands in.
    pub site: SdcSite,
    /// Flip vs stuck-at.
    pub mode: SdcMode,
    /// Element index into the target buffer (taken modulo its length).
    pub index: u64,
    /// The corrupting bits (non-zero; for depth buffers only the low 32
    /// bits matter and must be non-zero).
    pub bits: u64,
    /// How many times the event fires before disarming. `1` models a
    /// transient upset (a re-execution succeeds); a large value models a
    /// stuck fault that defeats re-execution and forces escalation.
    pub persistence: u32,
}

impl SdcEvent {
    /// A transient single-shot flip at `site`.
    pub fn flip(gpu: usize, iteration: u32, site: SdcSite, index: u64, bits: u64) -> Self {
        Self { gpu, iteration, site, mode: SdcMode::Flip, index, bits, persistence: 1 }
    }

    /// A stuck-at fault that refires on every touch (defeats re-execution
    /// and checkpoint rollback alike).
    pub fn stuck(gpu: usize, iteration: u32, site: SdcSite, index: u64, bits: u64) -> Self {
        Self { gpu, iteration, site, mode: SdcMode::Stuck, index, bits, persistence: u32::MAX }
    }
}

/// A deterministic, seeded schedule of faults for one run.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultPlan {
    /// Seed of the per-message fault stream.
    pub seed: u64,
    /// Probability an in-flight normal-vertex update is dropped.
    pub drop_prob: f64,
    /// Scheduled fail-stop GPU losses.
    pub fail_stops: Vec<FailStop>,
    /// Scheduled delegate-mask corruptions.
    pub mask_corruptions: Vec<MaskCorruption>,
    /// Scheduled at-rest checkpoint corruptions.
    pub checkpoint_corruptions: Vec<CheckpointCorruption>,
    /// NIC bandwidth degradation windows.
    pub nic_degradations: Vec<NicDegradation>,
    /// Scheduled in-device silent-data-corruption events.
    pub sdc_events: Vec<SdcEvent>,
}

impl FaultPlan {
    /// A benign plan (no faults) with the given seed.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            drop_prob: 0.0,
            fail_stops: Vec::new(),
            mask_corruptions: Vec::new(),
            checkpoint_corruptions: Vec::new(),
            nic_degradations: Vec::new(),
            sdc_events: Vec::new(),
        }
    }

    /// Sets the probability that each in-flight update is dropped.
    pub fn with_message_drops(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "drop_prob must be a probability");
        self.drop_prob = p;
        self
    }

    /// Schedules a fail-stop loss of `gpu` at `iteration`.
    pub fn with_fail_stop(mut self, gpu: usize, iteration: u32) -> Self {
        self.fail_stops.push(FailStop { gpu, iteration });
        self
    }

    /// Schedules an at-rest checkpoint corruption.
    pub fn with_checkpoint_corruption(
        mut self,
        gpu: usize,
        iteration: u32,
        word: usize,
        xor: u64,
    ) -> Self {
        self.checkpoint_corruptions.push(CheckpointCorruption { gpu, iteration, word, xor });
        self
    }

    /// Schedules a delegate-mask word corruption.
    pub fn with_mask_corruption(
        mut self,
        gpu: usize,
        iteration: u32,
        word: usize,
        xor: u64,
    ) -> Self {
        self.mask_corruptions.push(MaskCorruption { gpu, iteration, word, xor });
        self
    }

    /// Schedules an in-device silent-data-corruption event.
    pub fn with_sdc_event(mut self, event: SdcEvent) -> Self {
        assert!(event.bits != 0, "an SDC event must perturb at least one bit");
        if matches!(event.site, SdcSite::KernelDepth | SdcSite::RestoreBuffer) {
            assert!(
                event.bits & 0xffff_ffff != 0,
                "depth buffers are 32-bit: the low word of `bits` must be non-zero"
            );
        }
        assert!(event.persistence >= 1, "an SDC event fires at least once");
        self.sdc_events.push(event);
        self
    }

    /// Adds a NIC degradation window.
    pub fn with_nic_degradation(mut self, from: u32, until: u32, factor: f64) -> Self {
        assert!(factor >= 1.0, "degradation factor must be >= 1");
        self.nic_degradations.push(NicDegradation {
            from_iteration: from,
            until_iteration: until,
            factor,
        });
        self
    }

    /// Generates a random-but-deterministic plan for property tests: mixes
    /// message drops, possibly one fail-stop, a couple of mask
    /// corruptions, and a degradation window, all derived from `seed`.
    ///
    /// `num_gpus` bounds fault targets; `horizon` bounds fault iterations
    /// (schedule faults within the first `horizon` supersteps).
    pub fn random(seed: u64, num_gpus: usize, horizon: u32) -> Self {
        let mut s = seed;
        let mut next = || splitmix64(&mut s);
        let horizon = horizon.max(1);
        let mut plan = Self::new(next()).with_message_drops(unit_f64(next()) * 0.4);
        if num_gpus > 1 && next() % 2 == 0 {
            plan = plan.with_fail_stop(
                (next() % num_gpus as u64) as usize,
                (next() % horizon as u64) as u32,
            );
        }
        for _ in 0..(next() % 3) {
            plan = plan.with_mask_corruption(
                (next() % num_gpus as u64) as usize,
                (next() % horizon as u64) as u32,
                (next() % 64) as usize,
                next() | 1, // non-zero
            );
        }
        if next() % 2 == 0 {
            let from = (next() % horizon as u64) as u32;
            plan = plan.with_nic_degradation(
                from,
                from + 1 + (next() % 4) as u32,
                1.0 + unit_f64(next()) * 3.0,
            );
        }
        plan
    }

    /// Generates a random-but-deterministic *elastic* plan for property
    /// tests: up to three fail-stops (never all `num_gpus`) on distinct
    /// GPUs in the first `horizon` supersteps, so deaths cascade across
    /// the device grid. The caller checks survivability against a
    /// topology with `spares` standby slots (see [`plan_is_survivable`]).
    pub fn random_elastic(seed: u64, num_gpus: usize, horizon: u32) -> Self {
        let mut s = seed ^ 0x5e1a_571c_e1a5_71c5; // salt: distinct stream from `random`
        let mut next = || splitmix64(&mut s);
        let horizon = horizon.max(1);
        let mut plan = Self::new(next());
        let max_fails = num_gpus.saturating_sub(1).min(3) as u64;
        let fails = if max_fails == 0 { 0 } else { next() % (max_fails + 1) };
        for _ in 0..fails {
            let gpu = (next() % num_gpus as u64) as usize;
            if plan.fail_stops.iter().all(|f| f.gpu != gpu) {
                plan = plan.with_fail_stop(gpu, (next() % horizon as u64) as u32);
            }
        }
        plan
    }

    /// Refuses a plan whose fail-stops, corruptions or SDC events name a
    /// GPU outside a run of `num_gpus` GPUs: such an event could never
    /// fire, and a run that silently skipped it would report a clean
    /// bill for a fault that was asked for.
    pub fn check_gpus(&self, num_gpus: usize) -> Result<(), PlanError> {
        let named = self
            .fail_stops
            .iter()
            .map(|f| ("fail-stop", f.gpu))
            .chain(self.mask_corruptions.iter().map(|c| ("mask corruption", c.gpu)))
            .chain(self.checkpoint_corruptions.iter().map(|c| ("checkpoint corruption", c.gpu)))
            .chain(self.sdc_events.iter().map(|e| ("SDC event", e.gpu)));
        for (event, gpu) in named {
            if gpu >= num_gpus {
                return Err(PlanError { event, gpu, num_gpus });
            }
        }
        Ok(())
    }

    /// Generates a random-but-deterministic *compute-SDC* plan for
    /// property tests: 1–3 transient single-bit flips spread over the
    /// kernel-output / mask-reduction / frontier sites and the first
    /// `horizon` supersteps. Every event is single-bit, so an online
    /// verifier running at `Full` tier must either detect it or the flip
    /// provably landed on state the run never read (see the proptest
    /// suite in `tests/sdc.rs`).
    pub fn random_sdc(seed: u64, num_gpus: usize, horizon: u32) -> Self {
        let mut s = seed ^ 0x5dc0_5dc0_5dc0_5dc0; // salt: distinct stream
        let mut next = || splitmix64(&mut s);
        let horizon = horizon.max(1);
        let mut plan = Self::new(next());
        let events = 1 + next() % 3;
        for _ in 0..events {
            let gpu = (next() % num_gpus.max(1) as u64) as usize;
            let iteration = (next() % horizon as u64) as u32;
            let index = next();
            let (site, bits) = match next() % 3 {
                0 => (SdcSite::KernelDepth, 1u64 << (next() % 32)),
                1 => (SdcSite::ReducedMask, 1u64 << (next() % 64)),
                _ => (SdcSite::FrontierDrop, 1u64),
            };
            plan = plan.with_sdc_event(SdcEvent::flip(gpu, iteration, site, index, bits));
        }
        plan
    }
}

/// Per-category counters of faults actually injected.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultCounters {
    /// Messages dropped.
    pub drops: u64,
    /// Mask words corrupted.
    pub corruptions: u64,
    /// Fail-stop losses fired.
    pub fail_stops: u64,
    /// Checkpoint-at-rest corruptions applied.
    pub checkpoint_corruptions: u64,
    /// In-device silent-data-corruption events fired.
    pub sdc_injected: u64,
}

#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Hashes a message coordinate into 64 uniform bits, independent of any
/// other coordinate — the basis of thread-count-independent fault streams.
#[inline]
fn coordinate_hash(seed: u64, iteration: u32, attempt: u32, channel: u64, index: u64) -> u64 {
    let mut s = seed
        ^ (iteration as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
        ^ (attempt as u64).wrapping_mul(0xbf58_476d_1ce4_e5b9)
        ^ channel.wrapping_mul(0x94d0_49bb_1331_11eb)
        ^ index.wrapping_mul(0x2545_f491_4f6c_dd1d);
    splitmix64(&mut s)
}

/// Maps 64 uniform bits onto `[0, 1)` (53-bit mantissa precision).
#[inline]
fn unit_f64(bits: u64) -> f64 {
    (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// The stateful interpreter of a [`FaultPlan`].
///
/// Message fates are pure functions of `(seed, iteration, attempt,
/// channel, index)`, so retries (a different `attempt`) resample
/// independently and replays after rollback (same coordinates) reproduce
/// identical faults. Scheduled one-shot events (fail-stops, corruptions)
/// are remembered once fired and never fire again — rollback-and-replay
/// recovery therefore always terminates.
#[derive(Clone, Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    fired_fail_stops: Vec<bool>,
    fired_corruptions: Vec<bool>,
    fired_checkpoint_corruptions: Vec<bool>,
    /// Per-event fire counts for SDC events (an event disarms once its
    /// count reaches its `persistence`).
    sdc_fire_counts: Vec<u32>,
    counters: FaultCounters,
}

impl FaultInjector {
    /// Creates an injector executing `plan`.
    pub fn new(plan: FaultPlan) -> Self {
        let fired_fail_stops = vec![false; plan.fail_stops.len()];
        let fired_corruptions = vec![false; plan.mask_corruptions.len()];
        let fired_checkpoint_corruptions = vec![false; plan.checkpoint_corruptions.len()];
        let sdc_fire_counts = vec![0; plan.sdc_events.len()];
        Self {
            plan,
            fired_fail_stops,
            fired_corruptions,
            fired_checkpoint_corruptions,
            sdc_fire_counts,
            counters: FaultCounters::default(),
        }
    }

    /// Counters of faults injected so far.
    pub fn counters(&self) -> FaultCounters {
        self.counters
    }

    /// The GPUs that die at superstep boundary `iteration`: every
    /// not-yet-fired fail-stop with `iteration <= current` fires now, and
    /// its GPU is returned once, in flat order. One-shot: a replay of the
    /// same boundary after rollback finds nothing due.
    pub fn deaths_due(&mut self, iteration: u32) -> Vec<usize> {
        let mut dead = Vec::new();
        for (i, fs) in self.plan.fail_stops.iter().enumerate() {
            if !self.fired_fail_stops[i] && fs.iteration <= iteration {
                self.fired_fail_stops[i] = true;
                self.counters.fail_stops += 1;
                dead.push(fs.gpu);
            }
        }
        dead.sort_unstable();
        dead.dedup();
        dead
    }

    /// One-shot at-rest checkpoint corruption: the first not-yet-fired
    /// entry with `iteration <= current` fires and is returned so the
    /// checkpoint layer can tamper with the snapshot it just captured.
    pub fn checkpoint_corruption(&mut self, iteration: u32) -> Option<CheckpointCorruption> {
        for (i, c) in self.plan.checkpoint_corruptions.iter().enumerate() {
            if !self.fired_checkpoint_corruptions[i] && c.iteration <= iteration {
                self.fired_checkpoint_corruptions[i] = true;
                self.counters.checkpoint_corruptions += 1;
                return Some(*c);
            }
        }
        None
    }

    /// True when message `index` on `channel` (any stable id for a (from,
    /// to) pair or destination) at `(iteration, attempt)` is dropped: when
    /// its coordinate hash falls under the plan's drop probability. Each
    /// drop is counted. Deterministic and stateless apart from counters.
    pub fn drops(&mut self, iteration: u32, attempt: u32, channel: u64, index: u64) -> bool {
        let p = &self.plan;
        if p.drop_prob == 0.0 {
            return false;
        }
        let dropped =
            unit_f64(coordinate_hash(p.seed, iteration, attempt, channel, index)) < p.drop_prob;
        self.counters.drops += u64::from(dropped);
        dropped
    }

    /// Applies every matching not-yet-fired mask corruption for
    /// `iteration` to `words` (one word vector per GPU). Returns the GPU
    /// index of the first corruption applied, if any — the detection side
    /// sees this as a checksum mismatch on that GPU's mask message.
    pub fn corrupt_mask_words(&mut self, iteration: u32, words: &mut [Vec<u64>]) -> Option<usize> {
        let mut first = None;
        for (i, c) in self.plan.mask_corruptions.iter().enumerate() {
            if self.fired_corruptions[i] || c.iteration > iteration {
                continue;
            }
            let Some(target) = words.get_mut(c.gpu) else { continue };
            if target.is_empty() || c.xor == 0 {
                self.fired_corruptions[i] = true;
                continue;
            }
            let w = c.word % target.len();
            target[w] ^= c.xor;
            self.fired_corruptions[i] = true;
            self.counters.corruptions += 1;
            first.get_or_insert(c.gpu);
        }
        first
    }

    /// Fires every armed SDC event at `site` with `iteration <= current`
    /// whose target is applicable (the driver passes a predicate because
    /// only it knows which buffers are non-empty this superstep — an
    /// event held back by the predicate stays armed for a later step).
    /// Each fire is counted toward the event's `persistence` budget and
    /// the `sdc_injected` counter; unlike the wire faults these events
    /// deliberately *do* refire on rollback-replay while budget remains —
    /// that is what models a non-transient upset and exercises the
    /// escalation ladder.
    pub fn sdc_events_where<F: FnMut(&SdcEvent) -> bool>(
        &mut self,
        iteration: u32,
        site: SdcSite,
        mut applicable: F,
    ) -> Vec<SdcEvent> {
        let mut fired = Vec::new();
        for (i, ev) in self.plan.sdc_events.iter().enumerate() {
            if ev.site != site
                || ev.iteration > iteration
                || self.sdc_fire_counts[i] >= ev.persistence
                || !applicable(ev)
            {
                continue;
            }
            self.sdc_fire_counts[i] += 1;
            self.counters.sdc_injected += 1;
            fired.push(*ev);
        }
        fired
    }

    /// The remote-bandwidth slowdown factor active at `iteration` (`>= 1`;
    /// overlapping windows take the worst factor).
    pub fn bandwidth_factor(&self, iteration: u32) -> f64 {
        self.plan
            .nic_degradations
            .iter()
            .filter(|d| d.from_iteration <= iteration && iteration < d.until_iteration)
            .map(|d| d.factor)
            .fold(1.0, f64::max)
    }
}

/// The single point-in-time survivability predicate shared by the driver
/// and the plan-level check: a failure is absorbable without a spare only
/// if at least one primary member is still alive to host the partition.
pub fn failure_is_survivable(alive: &[bool]) -> bool {
    alive.iter().any(|&a| a)
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

/// A plan-level sanity check used by tests and the sweep harness: replays
/// the plan's fail-stops in iteration order against `topology`
/// (including its hot-spare pool) and reports whether every death can be
/// absorbed — either by promoting a free spare, or by spreading onto at
/// least one surviving primary ([`failure_is_survivable`]).
pub fn plan_is_survivable(plan: &FaultPlan, topology: Topology) -> bool {
    let p = topology.num_gpus() as usize;
    let mut alive = vec![true; p];
    let mut spares_free = topology.num_spares() as usize;
    let mut deaths: Vec<(u32, usize)> =
        plan.fail_stops.iter().filter(|fs| fs.gpu < p).map(|fs| (fs.iteration, fs.gpu)).collect();
    deaths.sort_unstable();
    for (_, gpu) in deaths {
        if !alive[gpu] {
            continue; // duplicate fail-stop on an already-dead member
        }
        alive[gpu] = false;
        if spares_free > 0 {
            spares_free -= 1;
        } else if !failure_is_survivable(&alive) {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn degraded_bound_beats_buddy_hosting() {
        assert_eq!(degraded_bound(1), 2.0, "one survivor degenerates to buddy hosting");
        assert_eq!(degraded_bound(15), 16.0 / 15.0);
        assert!(degraded_bound(15) < 2.0);
    }

    #[test]
    fn benign_plan_does_nothing() {
        let mut inj = FaultInjector::new(FaultPlan::new(7));
        assert!(inj.deaths_due(0).is_empty());
        for i in 0..100 {
            assert!(!inj.drops(0, 0, 0, i));
        }
        assert_eq!(inj.bandwidth_factor(3), 1.0);
        assert_eq!(inj.counters(), FaultCounters::default());
    }

    #[test]
    fn message_drops_are_deterministic_and_counted() {
        let plan = FaultPlan::new(42).with_message_drops(0.2);
        let mut a = FaultInjector::new(plan.clone());
        let mut b = FaultInjector::new(plan);
        let fa: Vec<bool> = (0..500).map(|i| a.drops(3, 0, 1, i)).collect();
        let fb: Vec<bool> = (0..500).map(|i| b.drops(3, 0, 1, i)).collect();
        assert_eq!(fa, fb, "same plan, same stream");
        let drops = fa.iter().filter(|&&dropped| dropped).count();
        assert!(drops > 50 && drops < 150, "~20% drops, got {drops}");
        assert_eq!(a.counters().drops, drops as u64);
        // At probability 1 every message is lost.
        let mut all = FaultInjector::new(FaultPlan::new(42).with_message_drops(1.0));
        assert!((0..100).all(|i| all.drops(0, 0, 0, i)));
    }

    #[test]
    fn retries_resample_independently() {
        let plan = FaultPlan::new(9).with_message_drops(0.5);
        let mut inj = FaultInjector::new(plan);
        let f0: Vec<bool> = (0..64).map(|i| inj.drops(1, 0, 0, i)).collect();
        let f1: Vec<bool> = (0..64).map(|i| inj.drops(1, 1, 0, i)).collect();
        assert_ne!(f0, f1, "attempt must salt the stream");
    }

    #[test]
    fn late_detection_still_fires() {
        // A fail-stop scheduled for iteration 2 first observed at 5.
        let mut inj = FaultInjector::new(FaultPlan::new(1).with_fail_stop(0, 2));
        assert_eq!(inj.deaths_due(5), vec![0]);
    }

    #[test]
    fn mask_corruption_is_one_shot_and_detected() {
        let plan = FaultPlan::new(3).with_mask_corruption(1, 2, 0, 0b1010);
        let mut inj = FaultInjector::new(plan);
        let mut words = vec![vec![0u64; 2]; 4];
        assert_eq!(inj.corrupt_mask_words(1, &mut words), None);
        assert_eq!(inj.corrupt_mask_words(2, &mut words), Some(1));
        assert_eq!(words[1][0], 0b1010);
        // Retry with fresh words: nothing fires again.
        let mut clean = vec![vec![0u64; 2]; 4];
        assert_eq!(inj.corrupt_mask_words(2, &mut clean), None);
        assert!(clean.iter().all(|w| w.iter().all(|&x| x == 0)));
        assert_eq!(inj.counters().corruptions, 1);
    }

    #[test]
    fn corruption_word_index_wraps() {
        let plan = FaultPlan::new(3).with_mask_corruption(0, 0, 99, 1);
        let mut inj = FaultInjector::new(plan);
        let mut words = vec![vec![0u64; 4]];
        assert_eq!(inj.corrupt_mask_words(0, &mut words), Some(0));
        assert_eq!(words[0][99 % 4], 1);
    }

    #[test]
    fn bandwidth_windows_take_worst_factor() {
        let plan =
            FaultPlan::new(0).with_nic_degradation(2, 6, 2.0).with_nic_degradation(4, 5, 3.5);
        let inj = FaultInjector::new(plan);
        assert_eq!(inj.bandwidth_factor(1), 1.0);
        assert_eq!(inj.bandwidth_factor(2), 2.0);
        assert_eq!(inj.bandwidth_factor(4), 3.5);
        assert_eq!(inj.bandwidth_factor(5), 2.0);
        assert_eq!(inj.bandwidth_factor(6), 1.0);
    }

    #[test]
    fn random_plans_are_deterministic_and_survivable() {
        for seed in 0..32u64 {
            let a = FaultPlan::random(seed, 4, 8);
            let b = FaultPlan::random(seed, 4, 8);
            assert_eq!(a, b);
            assert!(plan_is_survivable(&a, Topology::new(2, 2)));
            assert!(a.drop_prob <= 0.4);
            for c in &a.mask_corruptions {
                assert_ne!(c.xor, 0);
            }
        }
        // Different seeds must differ somewhere.
        assert_ne!(FaultPlan::random(0, 4, 8), FaultPlan::random(1, 4, 8));
    }

    #[test]
    fn survivability_requires_a_survivor() {
        let topo = Topology::new(1, 2);
        let all_dead = FaultPlan::new(0).with_fail_stop(0, 1).with_fail_stop(1, 2);
        assert!(!plan_is_survivable(&all_dead, topo));
        let one_left = FaultPlan::new(0).with_fail_stop(0, 1);
        assert!(plan_is_survivable(&one_left, topo));
    }

    #[test]
    fn spares_extend_survivability() {
        let both_die = FaultPlan::new(0).with_fail_stop(0, 1).with_fail_stop(1, 3);
        // Spreading needs a live primary: losing both members of a 1×2
        // grid is fatal with one spare (the second death finds neither a
        // free spare nor a survivor) but fine with two.
        assert!(!plan_is_survivable(&both_die, Topology::new(1, 2)));
        assert!(!plan_is_survivable(&both_die, Topology::new(1, 2).with_spares(1)));
        assert!(plan_is_survivable(&both_die, Topology::new(1, 2).with_spares(2)));
        // A second fail-stop of a dead member is no second death.
        let twice = FaultPlan::new(0).with_fail_stop(0, 1).with_fail_stop(0, 3);
        assert!(plan_is_survivable(&twice, Topology::new(1, 2)));
    }

    #[test]
    fn deaths_are_due_once_at_the_boundary_they_miss() {
        let plan = FaultPlan::new(0).with_fail_stop(2, 2).with_fail_stop(1, 2).with_fail_stop(1, 4);
        let mut inj = FaultInjector::new(plan);
        assert!(inj.deaths_due(0).is_empty());
        assert!(inj.deaths_due(1).is_empty());
        assert_eq!(inj.deaths_due(2), vec![1, 2], "flat order");
        assert_eq!(inj.counters().fail_stops, 2);
        // Replay after rollback: nothing is due twice.
        assert!(inj.deaths_due(2).is_empty());
        assert!(inj.deaths_due(3).is_empty());
        assert_eq!(inj.deaths_due(4), vec![1]);
        assert_eq!(inj.counters().fail_stops, 3);
    }

    #[test]
    fn plans_naming_missing_gpus_are_refused() {
        let named = [
            ("fail-stop", FaultPlan::new(0).with_fail_stop(4, 1)),
            ("mask corruption", FaultPlan::new(0).with_mask_corruption(9, 0, 0, 1)),
            ("checkpoint corruption", FaultPlan::new(0).with_checkpoint_corruption(4, 0, 0, 1)),
            (
                "SDC event",
                FaultPlan::new(0).with_sdc_event(SdcEvent::flip(7, 0, SdcSite::ReducedMask, 0, 1)),
            ),
        ];
        for (event, plan) in named {
            let err = plan.check_gpus(4).unwrap_err();
            assert_eq!(err.event, event);
            assert_eq!(err.num_gpus, 4);
            assert!(plan.check_gpus(err.gpu + 1).is_ok(), "{event}");
        }
        assert!(FaultPlan::random(3, 4, 8).check_gpus(4).is_ok());
        let err = FaultPlan::new(0).with_fail_stop(99, 1).check_gpus(4).unwrap_err();
        assert_eq!(err.to_string(), "fail-stop names GPU 99, but the run has 4 GPUs");
    }

    #[test]
    fn checkpoint_corruption_fires_once() {
        let plan = FaultPlan::new(0).with_checkpoint_corruption(2, 4, 7, 0b11);
        let mut inj = FaultInjector::new(plan);
        assert_eq!(inj.checkpoint_corruption(3), None);
        let fired = inj.checkpoint_corruption(4).expect("fires at iteration 4");
        assert_eq!((fired.gpu, fired.word, fired.xor), (2, 7, 0b11));
        assert_eq!(inj.checkpoint_corruption(4), None, "one-shot");
        assert_eq!(inj.counters().checkpoint_corruptions, 1);
    }

    #[test]
    fn sdc_events_fire_by_site_and_persistence() {
        let plan = FaultPlan::new(0)
            .with_sdc_event(SdcEvent::flip(1, 2, SdcSite::KernelDepth, 5, 0b100))
            .with_sdc_event(SdcEvent::stuck(0, 0, SdcSite::ReducedMask, 3, 1 << 40));
        let mut inj = FaultInjector::new(plan);
        // Wrong site / too early: nothing fires, events stay armed.
        assert!(inj.sdc_events_where(1, SdcSite::KernelDepth, |_| true).is_empty());
        assert!(inj.sdc_events_where(9, SdcSite::FrontierDrop, |_| true).is_empty());
        // The transient flip fires exactly once, even on replay.
        let fired = inj.sdc_events_where(2, SdcSite::KernelDepth, |_| true);
        assert_eq!(fired.len(), 1);
        assert_eq!((fired[0].gpu, fired[0].index, fired[0].bits), (1, 5, 0b100));
        assert!(inj.sdc_events_where(2, SdcSite::KernelDepth, |_| true).is_empty());
        // The stuck fault refires on every touch.
        for _ in 0..5 {
            assert_eq!(inj.sdc_events_where(3, SdcSite::ReducedMask, |_| true).len(), 1);
        }
        assert_eq!(inj.counters().sdc_injected, 6);
    }

    #[test]
    fn sdc_predicate_holds_events_back_without_consuming_them() {
        let plan =
            FaultPlan::new(0).with_sdc_event(SdcEvent::flip(2, 1, SdcSite::FrontierDrop, 0, 1));
        let mut inj = FaultInjector::new(plan);
        // The target buffer is empty this superstep: the event stays armed.
        assert!(inj.sdc_events_where(1, SdcSite::FrontierDrop, |_| false).is_empty());
        assert_eq!(inj.counters().sdc_injected, 0);
        // A later superstep with a non-empty target gets hit.
        assert_eq!(inj.sdc_events_where(4, SdcSite::FrontierDrop, |_| true).len(), 1);
        assert_eq!(inj.counters().sdc_injected, 1);
    }

    #[test]
    fn sdc_builder_rejects_ineffective_events() {
        let zero = std::panic::catch_unwind(|| {
            FaultPlan::new(0).with_sdc_event(SdcEvent::flip(0, 0, SdcSite::ReducedMask, 0, 0))
        });
        assert!(zero.is_err(), "zero bits can never corrupt anything");
        let high_only = std::panic::catch_unwind(|| {
            FaultPlan::new(0).with_sdc_event(SdcEvent::flip(0, 0, SdcSite::KernelDepth, 0, 1 << 40))
        });
        assert!(high_only.is_err(), "a 32-bit depth word cannot see bits 32..64");
    }

    #[test]
    fn random_sdc_plans_are_deterministic_single_bit_flips() {
        for seed in 0..64u64 {
            let a = FaultPlan::random_sdc(seed, 16, 8);
            assert_eq!(a, FaultPlan::random_sdc(seed, 16, 8));
            assert!(!a.sdc_events.is_empty() && a.sdc_events.len() <= 3);
            for ev in &a.sdc_events {
                assert_eq!(ev.bits.count_ones(), 1, "single-bit upsets only");
                assert_eq!(ev.mode, SdcMode::Flip);
                assert_eq!(ev.persistence, 1);
                assert!(ev.gpu < 16 && ev.iteration < 8);
                assert_ne!(ev.site, SdcSite::RestoreBuffer, "restore hits need a rollback");
            }
            // Message faults and fail-stops stay off: the stream is pure SDC.
            assert!(a.drop_prob == 0.0 && a.fail_stops.is_empty());
        }
        assert_ne!(FaultPlan::random_sdc(0, 16, 8), FaultPlan::random_sdc(1, 16, 8));
    }

    #[test]
    fn random_elastic_plans_are_deterministic_fail_stops() {
        for seed in 0..64u64 {
            let a = FaultPlan::random_elastic(seed, 8, 12);
            let b = FaultPlan::random_elastic(seed, 8, 12);
            assert_eq!(a, b);
            // Distinct victims inside the horizon, and nothing else.
            let mut victims: Vec<usize> = a.fail_stops.iter().map(|f| f.gpu).collect();
            victims.sort_unstable();
            victims.dedup();
            assert_eq!(victims.len(), a.fail_stops.len());
            assert!(victims.len() <= 3 && a.fail_stops.iter().all(|f| f.iteration < 12));
            assert_eq!(a, FaultPlan { fail_stops: a.fail_stops.clone(), ..FaultPlan::new(a.seed) });
        }
        assert_ne!(FaultPlan::random_elastic(0, 8, 12), FaultPlan::random_elastic(1, 8, 12));
        assert_ne!(
            FaultPlan::random(3, 8, 12).seed,
            FaultPlan::random_elastic(3, 8, 12).seed,
            "elastic stream is salted apart from the legacy stream"
        );
    }
}
