//! Elastic cluster membership: adaptive phi-accrual failure detection,
//! the member-state machine, and the hot-spare pool.
//!
//! PR 1's recovery tier used a blunt rule — one missed heartbeat means the
//! GPU is dead forever. Real clusters are noisier than that: a congested
//! NIC or a straggling device can delay heartbeats without the device
//! being lost, and declaring death too eagerly forces an expensive
//! rollback for a transient wobble. This module replaces the hard rule
//! with an *accrual* detector in the style of Hayashibara et al.'s
//! phi-accrual failure detector (the design used by Cassandra and Akka):
//!
//! * every superstep boundary each live GPU's heartbeat *arrival time* is
//!   sampled (deterministically jittered so suspicion timelines are
//!   reproducible across runs and thread counts);
//! * a sliding window of inter-arrival intervals per GPU feeds a normal
//!   model; the suspicion level is
//!   `phi(t) = -log10 P(interval > t)` under that model;
//! * `phi >= suspect_phi` marks the GPU **Suspected** — the driver keeps
//!   routing to it and merely charges probe/delay time;
//! * `phi >= confirm_phi` *and* at least [`MembershipConfig::confirm_misses`]
//!   consecutive silent boundaries marks it **ConfirmedDead** — only then
//!   does the recovery machinery (spare absorption or multi-survivor
//!   spreading, see `gcbfs-core`) engage;
//! * an arrival from a Dead member is a **Rejoin**: the detector history
//!   is reset and the driver re-syncs the member from the current
//!   checkpoint.
//!
//! The state machine is `Alive → Suspected → (Cleared → Alive | Dead)` and
//! `Dead → Rejoined → Alive`. All transitions are surfaced as
//! [`MembershipEvent`]s so the driver can charge modeled time and emit
//! trace spans without re-deriving the decision logic.
//!
//! The hot-spare pool is also tracked here: [`Topology::num_spares`]
//! standby devices that hold no partition until a confirmed death promotes
//! one (`take_spare`); a rejoin of the replaced member releases the slot
//! back (`release_spare`).
//!
//! [`Topology::num_spares`]: crate::topology::Topology::num_spares

use crate::fault::{coordinate_hash, unit_f64};

/// Tuning knobs of the accrual detector. All times are in *superstep
/// units* (the heartbeat piggybacks on the per-iteration termination
/// allreduce, so the natural beat period is 1.0).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MembershipConfig {
    /// Suspicion threshold: `phi >= suspect_phi` marks a member Suspected.
    pub suspect_phi: f64,
    /// Confirmation threshold: `phi >= confirm_phi` (with
    /// [`Self::confirm_misses`] consecutive silent boundaries) marks it Dead.
    pub confirm_phi: f64,
    /// Minimum consecutive missed heartbeats before death can be
    /// confirmed, regardless of phi. Guards against declaring death from
    /// a single lost control message.
    pub confirm_misses: u32,
    /// Sliding-window length of inter-arrival samples per member.
    pub window: usize,
    /// Mean one-way heartbeat latency in superstep units.
    pub base_latency: f64,
    /// Relative jitter amplitude on the heartbeat latency (`0.1` = ±10%).
    pub jitter: f64,
    /// Seed of the deterministic jitter stream.
    pub seed: u64,
}

impl Default for MembershipConfig {
    fn default() -> Self {
        Self {
            suspect_phi: 0.5,
            confirm_phi: 8.0,
            confirm_misses: 2,
            window: 16,
            base_latency: 0.05,
            jitter: 0.1,
            seed: 0x6d65_6d62, // "memb"
        }
    }
}

/// What the control channel observed for one member at one superstep
/// boundary. Produced by the ground-truth side (the fault injector),
/// consumed by the detector.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum HeartbeatStatus {
    /// The heartbeat arrived. `slowdown >= 1` scales its latency (a
    /// straggling device or degraded NIC path delays but does not lose
    /// the beat).
    Arrived {
        /// Latency multiplier for this beat (`1.0` = healthy).
        slowdown: f64,
    },
    /// No heartbeat arrived within the boundary window.
    Missing,
}

/// The lifecycle state of one member.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MemberState {
    /// Healthy: routing and ownership unchanged.
    Alive,
    /// Suspicion crossed `suspect_phi` but death is not confirmed; the
    /// driver keeps routing to it and charges probe time.
    Suspected,
    /// Death confirmed; its partition has been (or is being) re-homed.
    Dead,
}

/// A state-machine transition surfaced to the driver.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum MembershipEvent {
    /// `Alive → Suspected`: suspicion crossed the threshold.
    Suspected {
        /// Flat index of the member.
        gpu: usize,
        /// Iteration of the transition.
        iteration: u32,
        /// Suspicion level at the transition.
        phi: f64,
    },
    /// `Suspected → Alive`: suspicion retracted (heartbeats recovered).
    Cleared {
        /// Flat index of the member.
        gpu: usize,
        /// Iteration of the transition.
        iteration: u32,
    },
    /// `Suspected → Dead`: death confirmed; recovery must engage.
    ConfirmedDead {
        /// Flat index of the member.
        gpu: usize,
        /// Iteration of the transition.
        iteration: u32,
    },
    /// `Dead → Alive`: a presumed-dead member resumed heartbeating and
    /// must be re-synced from the current checkpoint.
    Rejoined {
        /// Flat index of the member.
        gpu: usize,
        /// Iteration of the transition.
        iteration: u32,
    },
}

impl MembershipEvent {
    /// Flat index of the member the event concerns.
    pub fn gpu(&self) -> usize {
        match *self {
            Self::Suspected { gpu, .. }
            | Self::Cleared { gpu, .. }
            | Self::ConfirmedDead { gpu, .. }
            | Self::Rejoined { gpu, .. } => gpu,
        }
    }
}

/// Per-member detector state plus the hot-spare pool.
#[derive(Clone, Debug)]
pub struct Membership {
    config: MembershipConfig,
    states: Vec<MemberState>,
    /// Last accepted heartbeat arrival time, in superstep units.
    last_arrival: Vec<f64>,
    /// Sliding window of inter-arrival intervals per member.
    intervals: Vec<Vec<f64>>,
    /// Consecutive silent boundaries per member.
    miss_count: Vec<u32>,
    /// Most recent suspicion level per member.
    phi: Vec<f64>,
    /// Free hot-spare slots, kept sorted ascending.
    spares_free: Vec<usize>,
    spares_total: usize,
}

impl Membership {
    /// Creates a membership view over `num_gpus` primary members and
    /// `num_spares` standby devices.
    pub fn new(num_gpus: usize, num_spares: usize, config: MembershipConfig) -> Self {
        Self {
            config,
            states: vec![MemberState::Alive; num_gpus],
            // As if a beat arrived one period before iteration 0.
            last_arrival: vec![config.base_latency - 1.0; num_gpus],
            intervals: vec![Vec::new(); num_gpus],
            miss_count: vec![0; num_gpus],
            phi: vec![0.0; num_gpus],
            spares_free: (0..num_spares).collect(),
            spares_total: num_spares,
        }
    }

    /// The detector configuration.
    pub fn config(&self) -> MembershipConfig {
        self.config
    }

    /// Current state of member `gpu`.
    pub fn state(&self, gpu: usize) -> MemberState {
        self.states[gpu]
    }

    /// Most recent suspicion level of member `gpu`.
    pub fn phi(&self, gpu: usize) -> f64 {
        self.phi[gpu]
    }

    /// Hot-spare slots currently free.
    pub fn available_spares(&self) -> usize {
        self.spares_free.len()
    }

    /// Promotes the lowest free spare slot, if any.
    pub fn take_spare(&mut self) -> Option<usize> {
        if self.spares_free.is_empty() {
            None
        } else {
            Some(self.spares_free.remove(0))
        }
    }

    /// Returns a promoted spare slot to the pool (e.g. after the member it
    /// replaced rejoined).
    pub fn release_spare(&mut self, slot: usize) {
        debug_assert!(slot < self.spares_total, "unknown spare slot {slot}");
        debug_assert!(!self.spares_free.contains(&slot), "spare slot {slot} double-released");
        let at = self.spares_free.partition_point(|&s| s < slot);
        self.spares_free.insert(at, slot);
    }

    /// Feeds one superstep boundary's heartbeat observations into the
    /// detector and returns the state transitions it caused, in member
    /// order.
    ///
    /// An arrival lands at the deterministically jittered modeled instant
    /// (`record_arrival`), and a silent member is evaluated at the
    /// boundary's end, `iteration + 1` beats (`record_silence`).
    ///
    /// Deterministic: arrival jitter is a pure function of
    /// `(seed, iteration, gpu)`, and replayed boundaries (same or earlier
    /// `iteration` after a rollback) never re-record intervals, so a
    /// rollback-and-replay reproduces the same membership trajectory
    /// without double-counting.
    pub fn observe(
        &mut self,
        iteration: u32,
        statuses: &[HeartbeatStatus],
    ) -> Vec<MembershipEvent> {
        assert_eq!(statuses.len(), self.states.len(), "one status per member");
        let mut events = Vec::new();
        for (gpu, status) in statuses.iter().enumerate() {
            let event = match *status {
                HeartbeatStatus::Arrived { slowdown } => {
                    let u =
                        unit_f64(coordinate_hash(self.config.seed, iteration, 0, gpu as u64, 0));
                    let latency = self.config.base_latency
                        * (1.0 + self.config.jitter * (2.0 * u - 1.0))
                        * slowdown.max(1.0);
                    self.record_arrival(gpu, iteration as f64 + latency, iteration)
                }
                // We waited the whole boundary window past the expected
                // beat: measure elapsed silence to the window's end.
                HeartbeatStatus::Missing => {
                    self.record_silence(gpu, (iteration + 1) as f64, iteration)
                }
            };
            events.extend(event);
        }
        events
    }

    /// Records a heartbeat arrival at `arrival` beats on member `gpu`,
    /// returning the state transition it caused, if any. `iteration` only
    /// labels the emitted event.
    ///
    /// An arrival not after the last accepted one (a replayed boundary
    /// after rollback) leaves the window statistics untouched; an arrival
    /// on a Dead member resets its history and rejoins it.
    fn record_arrival(
        &mut self,
        gpu: usize,
        arrival: f64,
        iteration: u32,
    ) -> Option<MembershipEvent> {
        let rejoining = self.states[gpu] == MemberState::Dead;
        if rejoining {
            // Fresh start: stale pre-death statistics would poison the
            // window.
            self.intervals[gpu].clear();
            self.last_arrival[gpu] = arrival;
            self.phi[gpu] = 0.0;
        } else if arrival > self.last_arrival[gpu] {
            let interval = arrival - self.last_arrival[gpu];
            let win = &mut self.intervals[gpu];
            if win.len() == self.config.window {
                win.remove(0);
            }
            win.push(interval);
            self.last_arrival[gpu] = arrival;
            self.phi[gpu] = self.phi_of(gpu, interval);
        }
        // else: replayed boundary after rollback — keep stats.
        self.miss_count[gpu] = 0;
        match self.states[gpu] {
            MemberState::Dead => {
                self.states[gpu] = MemberState::Alive;
                Some(MembershipEvent::Rejoined { gpu, iteration })
            }
            MemberState::Suspected => {
                if self.phi[gpu] < self.config.suspect_phi {
                    self.states[gpu] = MemberState::Alive;
                    Some(MembershipEvent::Cleared { gpu, iteration })
                } else {
                    None
                }
            }
            MemberState::Alive => {
                if self.phi[gpu] >= self.config.suspect_phi {
                    self.states[gpu] = MemberState::Suspected;
                    Some(MembershipEvent::Suspected { gpu, iteration, phi: self.phi[gpu] })
                } else {
                    None
                }
            }
        }
    }

    /// Records one silent observation window on member `gpu`, evaluating
    /// suspicion at `now` beats, and returns the transition it caused.
    fn record_silence(&mut self, gpu: usize, now: f64, iteration: u32) -> Option<MembershipEvent> {
        if self.states[gpu] == MemberState::Dead {
            return None; // already confirmed; nothing new to learn
        }
        self.miss_count[gpu] = self.miss_count[gpu].saturating_add(1);
        let elapsed = (now - self.last_arrival[gpu]).max(0.0);
        let phi = self.phi_of(gpu, elapsed);
        self.phi[gpu] = phi;
        if phi >= self.config.confirm_phi && self.miss_count[gpu] >= self.config.confirm_misses {
            self.states[gpu] = MemberState::Dead;
            Some(MembershipEvent::ConfirmedDead { gpu, iteration })
        } else if phi >= self.config.suspect_phi && self.states[gpu] == MemberState::Alive {
            self.states[gpu] = MemberState::Suspected;
            Some(MembershipEvent::Suspected { gpu, iteration, phi })
        } else {
            None
        }
    }

    /// Suspicion level for an observed interval/silence of `elapsed`
    /// superstep units on member `gpu`'s window statistics.
    fn phi_of(&self, gpu: usize, elapsed: f64) -> f64 {
        let win = &self.intervals[gpu];
        let (mu, sigma) = if win.len() >= 3 {
            let mu = win.iter().sum::<f64>() / win.len() as f64;
            let var = win.iter().map(|x| (x - mu) * (x - mu)).sum::<f64>() / win.len() as f64;
            (mu, var.sqrt())
        } else {
            // Bootstrap prior: one beat per superstep, loose spread.
            (1.0, 0.1)
        };
        // Floor sigma so a run of perfectly regular beats cannot make the
        // detector hair-triggered on the next micro-jitter.
        let sigma = sigma.max(0.1);
        let z = (elapsed - mu) / sigma;
        let tail = 0.5 * erfc(z / std::f64::consts::SQRT_2);
        if tail < 1e-300 {
            300.0
        } else {
            -tail.log10()
        }
    }
}

/// Complementary error function via the Abramowitz–Stegun 7.1.26
/// polynomial (|error| < 1.5e-7 — far below any threshold here).
fn erfc(x: f64) -> f64 {
    let ax = x.abs();
    let t = 1.0 / (1.0 + 0.327_591_1 * ax);
    let poly = t
        * (0.254_829_592
            + t * (-0.284_496_736
                + t * (1.421_413_741 + t * (-1.453_152_027 + t * 1.061_405_429))));
    let erfc_pos = poly * (-ax * ax).exp();
    if x >= 0.0 {
        erfc_pos
    } else {
        2.0 - erfc_pos
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_healthy(n: usize) -> Vec<HeartbeatStatus> {
        vec![HeartbeatStatus::Arrived { slowdown: 1.0 }; n]
    }

    #[test]
    fn erfc_sanity() {
        assert!((erfc(0.0) - 1.0).abs() < 1e-6);
        assert!((erfc(1.0) - 0.157_299).abs() < 1e-4);
        assert!((erfc(-1.0) - 1.842_700).abs() < 1e-4);
        assert!(erfc(6.0) < 1e-15);
    }

    #[test]
    fn benign_jitter_never_suspects() {
        let mut m = Membership::new(4, 0, MembershipConfig::default());
        for iter in 0..200 {
            let events = m.observe(iter, &all_healthy(4));
            assert!(events.is_empty(), "iter {iter}: {events:?}");
        }
        for gpu in 0..4 {
            assert_eq!(m.state(gpu), MemberState::Alive);
            assert!(m.phi(gpu) < 0.5, "phi {} too high", m.phi(gpu));
        }
    }

    #[test]
    fn straggler_is_suspected_then_cleared() {
        let mut m = Membership::new(2, 0, MembershipConfig::default());
        for iter in 0..8 {
            assert!(m.observe(iter, &all_healthy(2)).is_empty());
        }
        // GPU 1 starts straggling hard: the first late beat stretches its
        // inter-arrival interval and raises suspicion.
        let straggle = [
            HeartbeatStatus::Arrived { slowdown: 1.0 },
            HeartbeatStatus::Arrived { slowdown: 8.0 },
        ];
        let e8 = m.observe(8, &straggle);
        assert!(
            matches!(e8.as_slice(), [MembershipEvent::Suspected { gpu: 1, iteration: 8, .. }]),
            "straggler must raise suspicion, got {e8:?}"
        );
        assert_eq!(m.state(1), MemberState::Suspected);
        // Suspicion retracts once the beat rhythm steadies (a *constant*
        // lag has normal inter-arrival intervals — only the onset spikes),
        // and the member never dies.
        let mut cleared = false;
        for iter in 9..40 {
            let st = if iter < 12 { straggle } else { all_healthy(2).try_into().unwrap() };
            for e in m.observe(iter, &st) {
                match e {
                    MembershipEvent::Cleared { gpu, .. } => {
                        assert_eq!(gpu, 1);
                        cleared = true;
                    }
                    other => panic!("unexpected event {other:?}"),
                }
            }
        }
        assert!(cleared, "suspicion must clear");
        assert_eq!(m.state(1), MemberState::Alive);
    }

    #[test]
    fn silence_confirms_death_on_second_miss() {
        let mut m = Membership::new(3, 0, MembershipConfig::default());
        for iter in 0..5 {
            assert!(m.observe(iter, &all_healthy(3)).is_empty());
        }
        let st = |dead: bool| {
            vec![
                HeartbeatStatus::Arrived { slowdown: 1.0 },
                if dead {
                    HeartbeatStatus::Missing
                } else {
                    HeartbeatStatus::Arrived { slowdown: 1.0 }
                },
                HeartbeatStatus::Arrived { slowdown: 1.0 },
            ]
        };
        // First miss: suspected, not dead (confirm_misses = 2).
        let e5 = m.observe(5, &st(true));
        assert!(
            matches!(e5.as_slice(), [MembershipEvent::Suspected { gpu: 1, iteration: 5, .. }]),
            "{e5:?}"
        );
        assert_eq!(m.state(1), MemberState::Suspected);
        // Second consecutive miss: confirmed dead.
        let e6 = m.observe(6, &st(true));
        assert_eq!(e6, vec![MembershipEvent::ConfirmedDead { gpu: 1, iteration: 6 }]);
        assert_eq!(m.state(1), MemberState::Dead);
        assert!(m.state(0) != MemberState::Dead && m.state(2) != MemberState::Dead);
        // Further silence is not news.
        assert!(m.observe(7, &st(true)).is_empty());
    }

    #[test]
    fn never_arrived_member_still_confirms() {
        let mut m = Membership::new(2, 0, MembershipConfig::default());
        let st = [HeartbeatStatus::Arrived { slowdown: 1.0 }, HeartbeatStatus::Missing];
        let e0 = m.observe(0, &st);
        assert!(matches!(e0.as_slice(), [MembershipEvent::Suspected { gpu: 1, .. }]), "{e0:?}");
        let e1 = m.observe(1, &st);
        assert_eq!(e1, vec![MembershipEvent::ConfirmedDead { gpu: 1, iteration: 1 }]);
    }

    #[test]
    fn rejoin_resets_history_and_can_die_again() {
        let mut m = Membership::new(2, 0, MembershipConfig::default());
        for iter in 0..4 {
            m.observe(iter, &all_healthy(2));
        }
        let dead = [HeartbeatStatus::Arrived { slowdown: 1.0 }, HeartbeatStatus::Missing];
        m.observe(4, &dead);
        m.observe(5, &dead);
        assert_eq!(m.state(1), MemberState::Dead);
        // Long silence, then it comes back.
        for iter in 6..10 {
            assert!(m.observe(iter, &dead).is_empty());
        }
        let e = m.observe(10, &all_healthy(2));
        assert_eq!(e, vec![MembershipEvent::Rejoined { gpu: 1, iteration: 10 }]);
        assert_eq!(m.state(1), MemberState::Alive);
        assert_eq!(m.phi(1), 0.0, "history reset on rejoin");
        // Healthy beats after rejoin raise no alarms.
        for iter in 11..20 {
            assert!(m.observe(iter, &all_healthy(2)).is_empty(), "iter {iter}");
        }
        // And it can be lost again.
        let e = m.observe(20, &dead);
        assert!(matches!(e.as_slice(), [MembershipEvent::Suspected { gpu: 1, .. }]));
        let e = m.observe(21, &dead);
        assert_eq!(e, vec![MembershipEvent::ConfirmedDead { gpu: 1, iteration: 21 }]);
    }

    #[test]
    fn replayed_boundaries_do_not_double_count() {
        let mut a = Membership::new(2, 0, MembershipConfig::default());
        let mut b = Membership::new(2, 0, MembershipConfig::default());
        for iter in 0..6 {
            a.observe(iter, &all_healthy(2));
            b.observe(iter, &all_healthy(2));
        }
        // `a` replays iterations 3..6 (rollback); `b` does not.
        for iter in 3..6 {
            let events = a.observe(iter, &all_healthy(2));
            assert!(events.is_empty());
        }
        for gpu in 0..2 {
            assert_eq!(a.phi(gpu), b.phi(gpu), "replay must not perturb the detector");
            assert_eq!(a.intervals[gpu], b.intervals[gpu]);
        }
    }

    #[test]
    fn observation_is_deterministic() {
        let run = || {
            let mut m = Membership::new(4, 1, MembershipConfig::default());
            let mut log = Vec::new();
            for iter in 0..30 {
                let st: Vec<_> = (0..4)
                    .map(|g| {
                        if g == 2 && (10..20).contains(&iter) {
                            HeartbeatStatus::Missing
                        } else {
                            HeartbeatStatus::Arrived { slowdown: 1.0 }
                        }
                    })
                    .collect();
                log.extend(m.observe(iter, &st));
            }
            log
        };
        assert_eq!(run(), run());
    }

    /// `observe` is now a wrapper over the primitives; this pins the
    /// equivalence so the refactor cannot drift: hand-driving the
    /// primitives with the boundary-aligned instants `observe` uses
    /// produces the identical trajectory.
    #[test]
    fn observe_equals_hand_driven_primitives() {
        let cfg = MembershipConfig::default();
        let mut via_observe = Membership::new(2, 0, cfg);
        let mut via_primitives = Membership::new(2, 0, cfg);
        let mut log_a = Vec::new();
        let mut log_b = Vec::new();
        for iter in 0..25u32 {
            let miss = (8..11).contains(&iter);
            let statuses = [
                HeartbeatStatus::Arrived { slowdown: 1.0 },
                if miss {
                    HeartbeatStatus::Missing
                } else {
                    HeartbeatStatus::Arrived { slowdown: 1.0 }
                },
            ];
            log_a.extend(via_observe.observe(iter, &statuses));
            for (gpu, status) in statuses.iter().enumerate() {
                let event = match *status {
                    HeartbeatStatus::Arrived { slowdown } => {
                        let u = unit_f64(coordinate_hash(cfg.seed, iter, 0, gpu as u64, 0));
                        let latency =
                            cfg.base_latency * (1.0 + cfg.jitter * (2.0 * u - 1.0)) * slowdown;
                        via_primitives.record_arrival(gpu, iter as f64 + latency, iter)
                    }
                    HeartbeatStatus::Missing => {
                        via_primitives.record_silence(gpu, (iter + 1) as f64, iter)
                    }
                };
                log_b.extend(event);
            }
        }
        assert_eq!(log_a, log_b);
        for gpu in 0..2 {
            assert_eq!(via_observe.phi(gpu), via_primitives.phi(gpu));
            assert_eq!(via_observe.state(gpu), via_primitives.state(gpu));
        }
    }

    #[test]
    fn spare_pool_is_deterministic() {
        let mut m = Membership::new(4, 2, MembershipConfig::default());
        assert_eq!(m.available_spares(), 2);
        assert_eq!(m.take_spare(), Some(0));
        assert_eq!(m.take_spare(), Some(1));
        assert_eq!(m.take_spare(), None);
        m.release_spare(1);
        m.release_spare(0);
        assert_eq!(m.take_spare(), Some(0), "lowest slot first after release");
    }
}
