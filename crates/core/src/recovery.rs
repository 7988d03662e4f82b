//! Recovery policy: bounded retry-with-backoff for transient faults and
//! elastic re-homing of failed GPUs' partitions.
//!
//! Two recovery tiers, matching the fault classes of
//! [`gcbfs_cluster::fault`]:
//!
//! 1. **Transient faults** (dropped updates detected by per-peer ack
//!    counts; corrupted mask words detected by checksums) are handled
//!    *within* the iteration: the affected exchange or reduction is re-run
//!    with exponential backoff, up to [`MAX_RETRIES`] resampled attempts.
//!    The transport then escalates to a verified reliable path
//!    (retransmission with per-message acks — the way MPI itself survives
//!    link-level loss), so a recovering run always makes progress. Every
//!    retry's transfer time and backoff wait is charged to
//!    [`FaultStats::recovery_seconds`](crate::stats::FaultStats).
//! 2. **Fail-stop losses** are confirmed at the first superstep barrier
//!    the GPU misses, after [`DETECTION_SECONDS`]; the run rolls back to
//!    the latest checkpoint and re-homes the dead GPU's partition. Where
//!    it goes is one decision, [`RecoveryConfig::rehome`], which both
//!    backends call:
//!    * with recovery off the loss is fatal;
//!    * a free **hot spare** absorbs the whole partition at full speed
//!      (graph reload + state ship + mask re-replication, then no
//!      steady-state penalty);
//!    * otherwise, in degraded mode with a survivor left, the partition is
//!      **spread** across all survivors by a deterministic edge-balanced
//!      plan ([`spread_shares`]), bounding the degraded critical path near
//!      `(p+1)/p` ([`gcbfs_cluster::fault::degraded_bound`]);
//!    * otherwise the loss is fatal.
//!
//! Both tiers preserve the bit-exactness contract: recovery replays the
//! same deterministic computation, so depths match the fault-free run.

use gcbfs_cluster::fault::failure_is_survivable;

/// Resampled retry attempts per detected transient fault (and SDC
/// re-executions per superstep) before escalating.
pub const MAX_RETRIES: u32 = 3;

/// Base backoff before the first retry, doubling per attempt; charged as
/// modeled time to `recovery_seconds`.
const RETRY_BACKOFF_SECONDS: f64 = 50e-6;

/// Modeled time from a fail-stop to its confirmation at the barrier the
/// GPU misses: 1 ms, the real-process backend's measured detection of a
/// worker whose connection closed (0.92–1.02 ms in EXPERIMENTS.md's
/// `backend_sweep` section). Charged once per boundary that
/// confirms deaths, inside the rollback's `Recovery` span.
pub const DETECTION_SECONDS: f64 = 1e-3;

/// Where a confirmed-dead member's partition is re-homed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecoveryMode {
    /// A hot spare takes the whole partition (the proc backend spawns a
    /// replacement process into the dead worker's slot).
    Spare,
    /// Survivors adopt the partition (degraded mode).
    Spread,
}

impl RecoveryMode {
    /// Stable lower-case label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            Self::Spare => "spare",
            Self::Spread => "spread",
        }
    }
}

/// Knobs of the recovery policy; part of [`BfsConfig`](crate::BfsConfig).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RecoveryConfig {
    /// Master switch. When false, any detected fault surfaces as a typed
    /// error from `run_with_faults` instead of being recovered.
    pub enabled: bool,
    /// Take a checkpoint every `k` iterations (`0` = only the implicit
    /// iteration-0 checkpoint, which is always captured on fault-injected
    /// runs so rollback is always possible).
    pub checkpoint_interval: u32,
    /// Redistribute a failed GPU's partition to survivors when no spare
    /// is free (true), or surface the loss as a typed error (false).
    pub degraded_mode: bool,
}

impl Default for RecoveryConfig {
    /// Checkpoint every 4 iterations, degraded mode on.
    fn default() -> Self {
        Self { enabled: true, checkpoint_interval: 4, degraded_mode: true }
    }
}

impl RecoveryConfig {
    /// A policy that surfaces every detected fault as a typed error.
    pub fn disabled() -> Self {
        Self { enabled: false, degraded_mode: false, ..Self::default() }
    }

    /// Sets the checkpoint cadence.
    pub fn with_checkpoint_interval(mut self, k: u32) -> Self {
        self.checkpoint_interval = k;
        self
    }

    /// Whether to checkpoint entering superstep `iter`, given the
    /// iteration of the last checkpoint taken: never with recovery off;
    /// always at iteration 0, so a fail-stop always has a rollback
    /// target; then every `checkpoint_interval`; never twice for one
    /// iteration (a superstep re-entered after rollback). Both backends
    /// ask this one predicate.
    pub fn checkpoint_due(&self, iter: u32, last_cp: Option<u32>) -> bool {
        let k = self.checkpoint_interval;
        self.enabled && (iter == 0 || (k > 0 && iter.is_multiple_of(k))) && last_cp != Some(iter)
    }

    /// Where a confirmed-dead member's partition goes, or `None` when the
    /// loss is fatal: recovery off → fatal; a free spare → spare, whatever
    /// `degraded_mode` says; otherwise degraded mode with a survivor left
    /// → spread; otherwise fatal. Both backends ask this one decision.
    pub fn rehome(&self, spare_free: bool, survivor_remains: bool) -> Option<RecoveryMode> {
        if !self.enabled {
            None
        } else if spare_free {
            Some(RecoveryMode::Spare)
        } else if self.degraded_mode && survivor_remains {
            Some(RecoveryMode::Spread)
        } else {
            None
        }
    }

    /// Enables/disables degraded-mode continuation after fail-stop.
    pub fn with_degraded_mode(mut self, on: bool) -> Self {
        self.degraded_mode = on;
        self
    }
}

/// Exponential backoff before retry `attempt` (0-based): 50 µs
/// `* 2^attempt`.
pub fn retry_backoff(attempt: u32) -> f64 {
    RETRY_BACKOFF_SECONDS * 2f64.powi(attempt.min(16) as i32)
}

/// How one member's partition is currently hosted.
#[derive(Clone, Debug, PartialEq)]
pub enum Assignment {
    /// The member is alive and runs its own partition.
    SelfHosted,
    /// A promoted hot spare runs the whole partition at full speed.
    Spare,
    /// Survivors run shares of the partition: `(host, share)` with shares
    /// summing to 1.
    Hosted(Vec<(usize, f64)>),
}

/// The elastic ownership map: which compute unit runs each partition and
/// at what share, and how many hot spares are still free.
#[derive(Clone, Debug)]
pub struct ElasticMap {
    alive: Vec<bool>,
    assignment: Vec<Assignment>,
    spares_free: usize,
}

impl ElasticMap {
    /// An all-alive map over `num_gpus` members and `spares` free hot
    /// spares.
    pub fn new(num_gpus: usize, spares: usize) -> Self {
        Self {
            alive: vec![true; num_gpus],
            assignment: vec![Assignment::SelfHosted; num_gpus],
            spares_free: spares,
        }
    }

    /// True if a hot spare is still free.
    pub fn spare_free(&self) -> bool {
        self.spares_free > 0
    }

    /// True if `gpu` is confirmed dead (its partition is re-homed).
    pub fn is_failed(&self, gpu: usize) -> bool {
        !self.alive[gpu]
    }

    /// True if any member is dead.
    pub fn any_failed(&self) -> bool {
        self.alive.iter().any(|&a| !a)
    }

    /// Current hosting of `gpu`'s partition.
    pub fn assignment(&self, gpu: usize) -> &Assignment {
        &self.assignment[gpu]
    }

    /// Whether the current state still has a live host for every
    /// partition — delegates to the same predicate as
    /// [`gcbfs_cluster::fault::plan_is_survivable`].
    pub fn next_failure_is_survivable(&self, gpu: usize) -> bool {
        let mut alive = self.alive.clone();
        if gpu < alive.len() {
            alive[gpu] = false;
        }
        failure_is_survivable(&alive)
    }

    /// Marks `gpu` dead with its partition absorbed by a free spare.
    ///
    /// # Panics
    /// Panics if no spare is free.
    pub fn fail_to_spare(&mut self, gpu: usize) {
        assert!(self.alive[gpu], "GPU {gpu} already failed");
        assert!(self.spare_free(), "no spare is free for GPU {gpu}");
        self.alive[gpu] = false;
        self.assignment[gpu] = Assignment::Spare;
        self.spares_free -= 1;
    }

    /// Marks `gpu` dead and recomputes the edge-balanced spreading plan
    /// for *every* spread-hosted partition from scratch. `loads[g]` is the
    /// static edge load of member `g`'s partition. Deterministic: dead
    /// members are processed in flat order against the survivors' running
    /// loads.
    ///
    /// # Panics
    /// Panics if no member survives.
    pub fn fail_to_spread(&mut self, gpu: usize, loads: &[u64]) {
        assert!(self.alive[gpu], "GPU {gpu} already failed");
        self.alive[gpu] = false;
        assert!(
            failure_is_survivable(&self.alive),
            "at least one GPU must survive the failure of {gpu}"
        );
        let p = self.alive.len();
        let mut base: Vec<f64> =
            (0..p).map(|g| if self.alive[g] { loads[g] as f64 } else { 0.0 }).collect();
        for (g, &load) in loads.iter().enumerate().take(p) {
            if self.alive[g] || self.assignment[g] == Assignment::Spare {
                continue;
            }
            let shares = spread_shares(&self.alive, &base, load as f64);
            for &(host, share) in &shares {
                base[host] += share * load as f64;
            }
            self.assignment[g] = Assignment::Hosted(shares);
        }
    }

    /// `(dead, hosts)` pairs for every spread-hosted partition, in flat
    /// order.
    pub fn hosted_pairs(&self) -> impl Iterator<Item = (usize, &[(usize, f64)])> + '_ {
        self.assignment.iter().enumerate().filter_map(|(g, a)| match a {
            Assignment::Hosted(hosts) => Some((g, hosts.as_slice())),
            _ => None,
        })
    }
}

/// The deterministic edge-balanced spreading plan: splits `dead_load`
/// across the alive members so the maximum of `base[i] + share_i *
/// dead_load` is minimized (water-filling over the survivors' existing
/// loads). Shares sum to 1; members already at or above the water level
/// get nothing. Ties and ordering are deterministic (flat index order).
pub fn spread_shares(alive: &[bool], base: &[f64], dead_load: f64) -> Vec<(usize, f64)> {
    let survivors: Vec<usize> = (0..alive.len()).filter(|&g| alive[g]).collect();
    assert!(!survivors.is_empty(), "spreading requires at least one survivor");
    if dead_load <= 0.0 {
        // Nothing to balance: uniform shares keep the plan well-formed.
        let s = 1.0 / survivors.len() as f64;
        return survivors.into_iter().map(|g| (g, s)).collect();
    }
    // Water-filling: find level T with sum(max(0, T - base_i)) = dead_load.
    let mut order: Vec<usize> = survivors.clone();
    order.sort_by(|&a, &b| base[a].partial_cmp(&base[b]).unwrap().then(a.cmp(&b)));
    let mut remaining = dead_load;
    let mut level = base[order[0]];
    let mut filled = 0usize; // members at the water level
    while filled < order.len() {
        let next = if filled + 1 < order.len() { base[order[filled + 1]] } else { f64::INFINITY };
        let span = (filled + 1) as f64;
        let capacity = (next - level) * span;
        if capacity >= remaining || next.is_infinite() {
            level += remaining / span;
            remaining = 0.0;
            break;
        }
        remaining -= capacity;
        level = next;
        filled += 1;
    }
    debug_assert_eq!(remaining, 0.0);
    let mut shares: Vec<(usize, f64)> = Vec::new();
    for &g in &survivors {
        let take = (level - base[g]).max(0.0);
        if take > 0.0 {
            shares.push((g, take / dead_load));
        }
    }
    // Normalize drift so shares sum to exactly 1 (the last host absorbs
    // the rounding) — keeps modeled-time accounting conservative.
    let sum: f64 = shares.iter().map(|&(_, s)| s).sum();
    if let Some(last) = shares.last_mut() {
        last.1 += 1.0 - sum;
    }
    shares
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let r = RecoveryConfig::default();
        assert!(r.enabled && r.degraded_mode);
        assert!(r.checkpoint_interval > 0);
        let off = RecoveryConfig::disabled();
        assert!(!off.enabled && !off.degraded_mode);
    }

    #[test]
    fn rehome_decision_order() {
        use RecoveryMode::{Spare, Spread};
        let on = RecoveryConfig::default();
        let strict = on.with_degraded_mode(false);
        let off = RecoveryConfig::disabled();
        // (spare free, survivor remains) -> on / strict / off.
        for (spare, survivor, want_on, want_strict) in [
            (true, true, Some(Spare), Some(Spare)),
            (true, false, Some(Spare), Some(Spare)),
            (false, true, Some(Spread), None),
            (false, false, None, None),
        ] {
            assert_eq!(on.rehome(spare, survivor), want_on, "on, {spare} {survivor}");
            assert_eq!(strict.rehome(spare, survivor), want_strict, "strict, {spare} {survivor}");
            assert_eq!(off.rehome(spare, survivor), None, "off, {spare} {survivor}");
        }
        assert_eq!(Spare.label(), "spare");
        assert_eq!(Spread.label(), "spread");
    }

    #[test]
    fn backoff_doubles() {
        let b = RETRY_BACKOFF_SECONDS;
        assert_eq!(retry_backoff(0), b);
        assert_eq!(retry_backoff(1), 2.0 * b);
        assert_eq!(retry_backoff(3), 8.0 * b);
        // Capped exponent keeps the charge finite even for absurd attempts.
        assert!(retry_backoff(1000).is_finite());
    }

    #[test]
    fn spread_shares_water_fill_balances() {
        let alive = [true, true, true, false];
        let base = [100.0, 300.0, 100.0, 0.0];
        let shares = spread_shares(&alive, &base, 200.0);
        // Water level: 200 spread over the two light members -> level 200.
        assert_eq!(shares.len(), 2);
        let m: std::collections::HashMap<usize, f64> = shares.iter().copied().collect();
        assert!((m[&0] - 0.5).abs() < 1e-12);
        assert!((m[&2] - 0.5).abs() < 1e-12);
        let sum: f64 = shares.iter().map(|&(_, s)| s).sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn spread_shares_spill_over_heavier_members() {
        let alive = [true, true, false];
        let base = [100.0, 200.0, 0.0];
        let shares = spread_shares(&alive, &base, 500.0);
        // Level = (100+200+500)/2 = 400: member 0 takes 300, member 1
        // takes 200.
        let m: std::collections::HashMap<usize, f64> = shares.iter().copied().collect();
        assert!((m[&0] - 0.6).abs() < 1e-12);
        assert!((m[&1] - 0.4).abs() < 1e-12);
    }

    #[test]
    fn spread_shares_bound_matches_p_plus_1_over_p() {
        // Uniform loads: the slowest survivor carries (p+1)/p of its
        // original load.
        let p = 15usize;
        let mut alive = vec![true; p + 1];
        alive[p] = false;
        let base = vec![1000.0; p + 1];
        let shares = spread_shares(&alive, &base[..], 1000.0);
        let worst = base[0] + shares.iter().map(|&(_, s)| s * 1000.0).fold(0.0, f64::max);
        let bound = gcbfs_cluster::fault::degraded_bound(p);
        assert!((worst / base[0] - bound).abs() < 1e-9, "worst {worst}, bound {bound}");
    }

    #[test]
    fn elastic_map_lifecycle() {
        let loads = [100u64, 100, 100, 100];
        let mut map = ElasticMap::new(4, 1);
        assert!(!map.any_failed() && map.spare_free());
        // Spare absorption first.
        map.fail_to_spare(1);
        assert!(map.is_failed(1) && !map.spare_free());
        assert_eq!(map.assignment(1), &Assignment::Spare);
        // Then a spread failure across the 2 remaining survivors + nothing
        // of the spare (spares don't take spread shares).
        map.fail_to_spread(2, &loads);
        match map.assignment(2) {
            Assignment::Hosted(hosts) => {
                assert_eq!(hosts.len(), 2, "split across both survivors: {hosts:?}");
                let sum: f64 = hosts.iter().map(|&(_, s)| s).sum();
                assert!((sum - 1.0).abs() < 1e-12);
                assert!(hosts.iter().all(|&(h, _)| h == 0 || h == 3));
            }
            other => panic!("expected spread hosting, got {other:?}"),
        }
        // A second spread death re-plans both partitions over the one
        // survivor left.
        map.fail_to_spread(3, &loads);
        let pairs: Vec<_> = map.hosted_pairs().map(|(g, h)| (g, h.to_vec())).collect();
        assert_eq!(pairs, [(2, vec![(0, 1.0)]), (3, vec![(0, 1.0)])]);
        assert_eq!(map.assignment(1), &Assignment::Spare, "the spare keeps its partition");
        // Survivability delegation: GPU 0 is the last primary.
        assert!(!map.next_failure_is_survivable(0));
    }

    #[test]
    #[should_panic(expected = "no spare is free")]
    fn a_spare_is_taken_once() {
        let mut map = ElasticMap::new(2, 1);
        map.fail_to_spare(0);
        map.fail_to_spare(1);
    }

    #[test]
    #[should_panic(expected = "survive")]
    fn elastic_total_loss_is_unrecoverable() {
        let loads = [10u64, 10];
        let mut map = ElasticMap::new(2, 0);
        map.fail_to_spread(0, &loads);
        map.fail_to_spread(1, &loads);
    }
}
