//! The machine's virtual clock.
//!
//! All time on the simulated machine is virtual: it advances only when the
//! machine executes work (CPU cycles) or when a workload explicitly models
//! an I/O wait. This makes every time-dependent mechanism in CSOD — the
//! 10-second burst-throttling window, the age-based decay of installed
//! watchpoints, and the reviving period — fully deterministic and
//! unit-testable.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A span of virtual time, in nanoseconds.
///
/// # Examples
///
/// ```
/// use sim_machine::VirtDuration;
///
/// let d = VirtDuration::from_secs(10);
/// assert_eq!(d.as_nanos(), 10_000_000_000);
/// assert_eq!(d, VirtDuration::from_millis(10_000));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct VirtDuration(u64);

impl VirtDuration {
    /// A zero-length duration.
    pub const ZERO: VirtDuration = VirtDuration(0);

    /// Creates a duration from nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        VirtDuration(ns)
    }

    /// Creates a duration from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        VirtDuration(us * 1_000)
    }

    /// Creates a duration from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        VirtDuration(ms * 1_000_000)
    }

    /// Creates a duration from seconds.
    pub const fn from_secs(s: u64) -> Self {
        VirtDuration(s * 1_000_000_000)
    }

    /// The duration in nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// The duration as fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }
}

impl fmt::Display for VirtDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.0 as f64 / 1e6)
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}us", self.0 as f64 / 1e3)
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

impl Add for VirtDuration {
    type Output = VirtDuration;

    fn add(self, rhs: VirtDuration) -> VirtDuration {
        VirtDuration(self.0 + rhs.0)
    }
}

impl AddAssign for VirtDuration {
    fn add_assign(&mut self, rhs: VirtDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for VirtDuration {
    type Output = VirtDuration;

    fn sub(self, rhs: VirtDuration) -> VirtDuration {
        VirtDuration(self.0 - rhs.0)
    }
}

/// An instant on the machine's virtual timeline, in nanoseconds since
/// machine boot.
///
/// # Examples
///
/// ```
/// use sim_machine::{Clock, VirtDuration};
///
/// let mut clock = Clock::new();
/// let boot = clock.now();
/// clock.advance(VirtDuration::from_secs(3));
/// assert_eq!(clock.now() - boot, VirtDuration::from_secs(3));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct VirtInstant(u64);

impl VirtInstant {
    /// The instant of machine boot.
    pub const BOOT: VirtInstant = VirtInstant(0);

    /// Nanoseconds since boot.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// The duration elapsed since `earlier`.
    ///
    /// # Panics
    ///
    /// Panics if `earlier` is later than `self`; virtual time is monotonic
    /// so this indicates a logic error in the caller.
    pub fn duration_since(self, earlier: VirtInstant) -> VirtDuration {
        assert!(
            earlier.0 <= self.0,
            "virtual time moved backwards: {} -> {}",
            earlier.0,
            self.0
        );
        VirtDuration(self.0 - earlier.0)
    }

    /// Like [`VirtInstant::duration_since`] but saturating to zero instead
    /// of panicking.
    pub fn saturating_duration_since(self, earlier: VirtInstant) -> VirtDuration {
        VirtDuration(self.0.saturating_sub(earlier.0))
    }
}

impl Add<VirtDuration> for VirtInstant {
    type Output = VirtInstant;

    fn add(self, rhs: VirtDuration) -> VirtInstant {
        VirtInstant(self.0 + rhs.as_nanos())
    }
}

impl Sub<VirtInstant> for VirtInstant {
    type Output = VirtDuration;

    fn sub(self, rhs: VirtInstant) -> VirtDuration {
        self.duration_since(rhs)
    }
}

impl fmt::Display for VirtInstant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{}", VirtDuration(self.0))
    }
}

/// The machine's monotonic virtual clock.
///
/// The clock only moves when [`Clock::advance`] is called; the
/// [`Machine`](crate::Machine) advances it automatically as cycles are
/// charged to the [cycle counter](crate::CycleCounter).
#[derive(Debug, Clone, Default)]
pub struct Clock {
    now: VirtInstant,
}

impl Clock {
    /// Creates a clock at machine boot (t = 0).
    pub fn new() -> Self {
        Clock::default()
    }

    /// The current virtual time.
    pub fn now(&self) -> VirtInstant {
        self.now
    }

    /// Advances the clock by `d`.
    #[inline]
    pub fn advance(&mut self, d: VirtDuration) {
        self.now = self.now + d;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duration_constructors_agree() {
        assert_eq!(VirtDuration::from_secs(1), VirtDuration::from_millis(1000));
        assert_eq!(
            VirtDuration::from_millis(1),
            VirtDuration::from_micros(1000)
        );
        assert_eq!(VirtDuration::from_micros(1), VirtDuration::from_nanos(1000));
    }

    #[test]
    fn clock_is_monotonic() {
        let mut c = Clock::new();
        assert_eq!(c.now(), VirtInstant::BOOT);
        c.advance(VirtDuration::from_nanos(5));
        c.advance(VirtDuration::from_nanos(7));
        assert_eq!(c.now().as_nanos(), 12);
    }

    #[test]
    fn instant_arithmetic() {
        let t0 = VirtInstant::BOOT;
        let t1 = t0 + VirtDuration::from_secs(2);
        assert_eq!(t1 - t0, VirtDuration::from_secs(2));
        assert_eq!(t0.saturating_duration_since(t1), VirtDuration::ZERO);
    }

    #[test]
    #[should_panic(expected = "moved backwards")]
    fn duration_since_panics_on_backwards_time() {
        let t0 = VirtInstant::BOOT;
        let t1 = t0 + VirtDuration::from_nanos(1);
        let _ = t0.duration_since(t1);
    }

    #[test]
    fn duration_display_scales_units() {
        assert_eq!(VirtDuration::from_nanos(12).to_string(), "12ns");
        assert_eq!(VirtDuration::from_micros(3).to_string(), "3.000us");
        assert_eq!(VirtDuration::from_millis(4).to_string(), "4.000ms");
        assert_eq!(VirtDuration::from_secs(5).to_string(), "5.000s");
    }
}
