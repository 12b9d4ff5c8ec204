//! Virtual time.
//!
//! The paper's experiments are defined in wall-clock terms — "input rate
//! 30 ms per stream", "run the query for 40 minutes", "τ_m = 45 seconds".
//! Re-running hour-long experiments in real time would make the
//! reproduction impractical and non-deterministic, so the workspace keeps
//! all experiment logic on a **virtual clock**: one tuple arrival advances
//! the clock by the configured inter-arrival gap, and every timer
//! (`ss_timer`, `sr_timer`, `lb_timer`, τ_m) is expressed in virtual
//! milliseconds. The threaded runtime can map virtual time back onto real
//! `std::time` pacing when desired.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point on the virtual timeline, in milliseconds since experiment start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct VirtualTime(pub u64);

/// A span of virtual time, in milliseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct VirtualDuration(pub u64);

impl VirtualTime {
    /// The experiment start.
    pub const ZERO: VirtualTime = VirtualTime(0);

    /// Construct from milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        VirtualTime(ms)
    }

    /// Construct from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        VirtualTime(s * 1000)
    }

    /// Construct from whole minutes.
    #[inline]
    pub const fn from_mins(m: u64) -> Self {
        VirtualTime(m * 60_000)
    }

    /// Milliseconds since start.
    #[inline]
    pub const fn as_millis(self) -> u64 {
        self.0
    }

    /// Seconds since start (truncating).
    #[inline]
    pub const fn as_secs(self) -> u64 {
        self.0 / 1000
    }

    /// Fractional minutes since start, for plotting against paper figures.
    #[inline]
    pub fn as_mins_f64(self) -> f64 {
        self.0 as f64 / 60_000.0
    }

    /// Time elapsed since `earlier`; saturates at zero instead of
    /// underflowing when the clock comparison races.
    #[inline]
    pub fn since(self, earlier: VirtualTime) -> VirtualDuration {
        VirtualDuration(self.0.saturating_sub(earlier.0))
    }
}

impl VirtualDuration {
    /// The zero-length span.
    pub const ZERO: VirtualDuration = VirtualDuration(0);

    /// Construct from milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        VirtualDuration(ms)
    }

    /// Construct from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        VirtualDuration(s * 1000)
    }

    /// Construct from whole minutes.
    #[inline]
    pub const fn from_mins(m: u64) -> Self {
        VirtualDuration(m * 60_000)
    }

    /// Milliseconds in the span.
    #[inline]
    pub const fn as_millis(self) -> u64 {
        self.0
    }

    /// Seconds in the span (truncating).
    #[inline]
    pub const fn as_secs(self) -> u64 {
        self.0 / 1000
    }
}

impl Add<VirtualDuration> for VirtualTime {
    type Output = VirtualTime;
    #[inline]
    fn add(self, rhs: VirtualDuration) -> VirtualTime {
        VirtualTime(self.0 + rhs.0)
    }
}

impl AddAssign<VirtualDuration> for VirtualTime {
    #[inline]
    fn add_assign(&mut self, rhs: VirtualDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<VirtualTime> for VirtualTime {
    type Output = VirtualDuration;
    #[inline]
    fn sub(self, rhs: VirtualTime) -> VirtualDuration {
        self.since(rhs)
    }
}

impl Add for VirtualDuration {
    type Output = VirtualDuration;
    #[inline]
    fn add(self, rhs: VirtualDuration) -> VirtualDuration {
        VirtualDuration(self.0 + rhs.0)
    }
}

impl fmt::Display for VirtualTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{}ms", self.0)
    }
}

impl fmt::Display for VirtualDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}ms", self.0)
    }
}

/// A resettable countdown against virtual time, modelling the paper's
/// `ss_timer`, `sr_timer` and `lb_timer` (Table 1).
///
/// A timer with period `p` "expires" whenever at least `p` virtual
/// milliseconds have elapsed since the last reset. Drivers poll
/// [`PeriodicTimer::expired`] as the clock advances and call
/// [`PeriodicTimer::reset`] when acting on the expiry, mirroring the
/// `timer.reset()` lines in Algorithms 1 and 2.
#[derive(Debug, Clone)]
pub struct PeriodicTimer {
    period: VirtualDuration,
    last_reset: VirtualTime,
}

impl PeriodicTimer {
    /// Create a timer that first expires `period` after `start`.
    pub fn new(period: VirtualDuration, start: VirtualTime) -> Self {
        PeriodicTimer {
            period,
            last_reset: start,
        }
    }

    /// Has the period elapsed at `now`?
    #[inline]
    pub fn expired(&self, now: VirtualTime) -> bool {
        now.since(self.last_reset) >= self.period
    }

    /// Restart the countdown from `now`.
    #[inline]
    pub fn reset(&mut self, now: VirtualTime) {
        self.last_reset = now;
    }

    /// The configured period.
    #[inline]
    pub fn period(&self) -> VirtualDuration {
        self.period
    }

    /// When the timer was last reset.
    #[inline]
    pub fn last_reset(&self) -> VirtualTime {
        self.last_reset
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_conversion() {
        assert_eq!(VirtualTime::from_secs(2).as_millis(), 2000);
        assert_eq!(VirtualTime::from_mins(3).as_secs(), 180);
        assert_eq!(VirtualDuration::from_mins(1).as_millis(), 60_000);
        assert!((VirtualTime::from_mins(2).as_mins_f64() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn arithmetic() {
        let t = VirtualTime::from_millis(100) + VirtualDuration::from_millis(50);
        assert_eq!(t.as_millis(), 150);
        let mut t2 = t;
        t2 += VirtualDuration::from_millis(10);
        assert_eq!(t2.as_millis(), 160);
        assert_eq!((t2 - t).as_millis(), 10);
        // saturating: earlier - later == 0
        assert_eq!((t - t2).as_millis(), 0);
        assert_eq!(
            (VirtualDuration::from_millis(5) + VirtualDuration::from_millis(7)).as_millis(),
            12
        );
    }

    #[test]
    fn periodic_timer_expires_and_resets() {
        let mut timer = PeriodicTimer::new(VirtualDuration::from_secs(45), VirtualTime::ZERO);
        assert!(!timer.expired(VirtualTime::from_secs(44)));
        assert!(timer.expired(VirtualTime::from_secs(45)));
        assert!(timer.expired(VirtualTime::from_secs(46)));
        timer.reset(VirtualTime::from_secs(46));
        assert!(!timer.expired(VirtualTime::from_secs(90)));
        assert!(timer.expired(VirtualTime::from_secs(91)));
        assert_eq!(timer.period().as_secs(), 45);
        assert_eq!(timer.last_reset().as_secs(), 46);
    }

    #[test]
    fn display_forms() {
        assert_eq!(VirtualTime::from_millis(5).to_string(), "t+5ms");
        assert_eq!(VirtualDuration::from_millis(5).to_string(), "5ms");
    }
}
