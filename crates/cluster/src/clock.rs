//! Time source for the failure detector on wall time.
//!
//! The phi-accrual detector in [`membership`](crate::membership) reasons
//! about *inter-arrival intervals* in heartbeat-period units ("beats").
//! Under the simulator a beat is one superstep and arrivals are computed
//! from the iteration counter; under the proc backend a beat is a real
//! heartbeat period and arrivals are wall-clock instants. A [`Clock`]
//! yields "now" in beats, and the membership primitives
//! (`record_arrival` / `record_silence`) take beat-valued times instead
//! of assuming evaluation happens exactly at superstep boundaries.

use std::time::Instant;

/// A monotone time source measured in heartbeat-period units.
pub trait Clock: Send + Sync {
    /// Current time in beats. Monotone non-decreasing.
    fn now(&self) -> f64;
}

/// The proc backend's clock: wall time since an origin instant, scaled by
/// the heartbeat period so one beat on the wire is one unit here.
#[derive(Clone, Debug)]
pub struct WallClock {
    origin: Instant,
    period_secs: f64,
}

impl WallClock {
    /// A wall clock whose beat is `period_secs` of real time, starting now.
    pub fn new(period_secs: f64) -> Self {
        assert!(period_secs > 0.0, "heartbeat period must be positive");
        Self { origin: Instant::now(), period_secs }
    }

    /// The heartbeat period in seconds (one beat).
    pub fn period_secs(&self) -> f64 {
        self.period_secs
    }

    /// Wall seconds since the clock's origin.
    pub fn elapsed_secs(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }
}

impl Clock for WallClock {
    fn now(&self) -> f64 {
        self.elapsed_secs() / self.period_secs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wall_clock_scales_by_period() {
        let c = WallClock::new(0.001);
        std::thread::sleep(std::time::Duration::from_millis(5));
        let beats = c.now();
        assert!(beats >= 4.0, "5ms at 1ms/beat must be >= 4 beats, got {beats}");
        assert_eq!(c.period_secs(), 0.001);
    }
}
