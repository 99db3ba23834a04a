//! Simulated time.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in simulated time, stored as an integer number of picoseconds.
///
/// Integer storage keeps time comparisons exact (no accumulation of floating
/// point error as the event queue advances), mirroring SystemC's
/// `sc_time` resolution model.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SimTime(u64);

impl SimTime {
    /// Time zero.
    pub const ZERO: SimTime = SimTime(0);

    /// Creates a time from nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        Self(ns * 1_000)
    }

    /// Creates a time from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        Self(us * 1_000_000)
    }

    /// Creates a time from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        Self(ms * 1_000_000_000)
    }

    /// Creates a time from seconds expressed as a float, rounding to the
    /// nearest picosecond (saturating at zero for negative input).
    pub fn from_seconds(seconds: f64) -> Self {
        if seconds <= 0.0 {
            return Self(0);
        }
        Self((seconds * 1e12).round() as u64)
    }

    /// The value in seconds as a float.
    pub fn as_seconds(self) -> f64 {
        self.0 as f64 * 1e-12
    }
}

impl Add for SimTime {
    type Output = SimTime;
    fn add(self, rhs: Self) -> Self {
        Self(self.0 + rhs.0)
    }
}

impl AddAssign for SimTime {
    fn add_assign(&mut self, rhs: Self) {
        self.0 += rhs.0;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: Self) -> Self {
        Self(self.0 - rhs.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000_000 {
            write!(f, "{} s", self.0 as f64 / 1e12)
        } else if self.0 >= 1_000_000_000 {
            write!(f, "{} ms", self.0 as f64 / 1e9)
        } else if self.0 >= 1_000_000 {
            write!(f, "{} us", self.0 as f64 / 1e6)
        } else if self.0 >= 1_000 {
            write!(f, "{} ns", self.0 as f64 / 1e3)
        } else {
            write!(f, "{} ps", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_scale_correctly() {
        assert_eq!(SimTime::from_micros(1), SimTime::from_nanos(1_000));
        assert_eq!(SimTime::from_millis(1), SimTime::from_micros(1_000));
        assert_eq!(SimTime::from_seconds(1.0), SimTime::from_millis(1_000));
        assert_eq!(SimTime::from_seconds(1e-9), SimTime::from_nanos(1));
        assert_eq!(SimTime::from_seconds(-1.0), SimTime::ZERO);
    }

    #[test]
    fn seconds_roundtrip() {
        let t = SimTime::from_seconds(0.0025);
        assert!((t.as_seconds() - 0.0025).abs() < 1e-15);
    }

    #[test]
    fn arithmetic_and_ordering() {
        let a = SimTime::from_nanos(5);
        let b = SimTime::from_nanos(3);
        assert_eq!(a + b, SimTime::from_nanos(8));
        assert_eq!(a - b, SimTime::from_nanos(2));
        assert!(b < a);
        let mut c = a;
        c += b;
        assert_eq!(c, SimTime::from_nanos(8));
    }

    #[test]
    fn display_uses_sensible_units() {
        assert_eq!(SimTime::from_seconds(5e-12).to_string(), "5 ps");
        assert_eq!(SimTime::from_nanos(5).to_string(), "5 ns");
        assert_eq!(SimTime::from_micros(5).to_string(), "5 us");
        assert_eq!(SimTime::from_millis(5).to_string(), "5 ms");
        assert_eq!(SimTime::from_seconds(5.0).to_string(), "5 s");
    }
}
