//! Strongly typed magnetic quantities.
//!
//! The hysteresis model juggles several physically distinct quantities that
//! are all "just an `f64`" at the machine level: the applied field `H`
//! (A/m), the magnetisation `M` (A/m) and the flux density `B` (T).  Mixing
//! these up is one of the classic sources of
//! silent modelling bugs, so this module gives each of them a newtype with
//! the arithmetic that is physically meaningful and nothing more
//! (C-NEWTYPE).
//!
//! All newtypes are `Copy`, ordered, hashable on their bit pattern via
//! `Debug`-friendly wrappers, and expose their raw value through explicit
//! `as_*` accessors so call sites stay readable.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

macro_rules! quantity {
    ($(#[$meta:meta])* $name:ident, $unit:literal, $accessor:ident) => {
        $(#[$meta])*
        #[derive(Debug, Default, Clone, Copy, PartialEq, PartialOrd)]
        pub struct $name(f64);

        impl $name {
            /// Wraps a raw value expressed in the quantity's SI unit.
            #[inline]
            pub const fn new(value: f64) -> Self {
                Self(value)
            }

            /// Zero of this quantity.
            #[inline]
            pub const fn zero() -> Self {
                Self(0.0)
            }

            /// Returns the raw value in the quantity's SI unit.
            #[inline]
            pub const fn $accessor(self) -> f64 {
                self.0
            }

            /// Returns the raw value in the quantity's SI unit.
            ///
            /// Alias of the unit-specific accessor; useful in generic code.
            #[inline]
            pub const fn value(self) -> f64 {
                self.0
            }

            /// Absolute value.
            #[inline]
            pub fn abs(self) -> Self {
                Self(self.0.abs())
            }

            /// Sign of the value (`-1.0`, `0.0` or `1.0`).
            #[inline]
            pub fn signum(self) -> f64 {
                if self.0 == 0.0 { 0.0 } else { self.0.signum() }
            }

            /// `true` when the wrapped value is finite (not NaN / ±∞).
            #[inline]
            pub fn is_finite(self) -> bool {
                self.0.is_finite()
            }

            /// Component-wise minimum.
            #[inline]
            pub fn min(self, other: Self) -> Self {
                Self(self.0.min(other.0))
            }

            /// Component-wise maximum.
            #[inline]
            pub fn max(self, other: Self) -> Self {
                Self(self.0.max(other.0))
            }

            /// Clamps the value into `[lo, hi]`.
            #[inline]
            pub fn clamp(self, lo: Self, hi: Self) -> Self {
                Self(self.0.clamp(lo.0, hi.0))
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{} {}", self.0, $unit)
            }
        }

        impl From<f64> for $name {
            #[inline]
            fn from(value: f64) -> Self {
                Self(value)
            }
        }

        impl Add for $name {
            type Output = Self;
            #[inline]
            fn add(self, rhs: Self) -> Self {
                Self(self.0 + rhs.0)
            }
        }

        impl Sub for $name {
            type Output = Self;
            #[inline]
            fn sub(self, rhs: Self) -> Self {
                Self(self.0 - rhs.0)
            }
        }

        impl AddAssign for $name {
            #[inline]
            fn add_assign(&mut self, rhs: Self) {
                self.0 += rhs.0;
            }
        }

        impl SubAssign for $name {
            #[inline]
            fn sub_assign(&mut self, rhs: Self) {
                self.0 -= rhs.0;
            }
        }

        impl Neg for $name {
            type Output = Self;
            #[inline]
            fn neg(self) -> Self {
                Self(-self.0)
            }
        }

        impl Mul<f64> for $name {
            type Output = Self;
            #[inline]
            fn mul(self, rhs: f64) -> Self {
                Self(self.0 * rhs)
            }
        }

        impl Mul<$name> for f64 {
            type Output = $name;
            #[inline]
            fn mul(self, rhs: $name) -> $name {
                $name(self * rhs.0)
            }
        }

        impl Div<f64> for $name {
            type Output = Self;
            #[inline]
            fn div(self, rhs: f64) -> Self {
                Self(self.0 / rhs)
            }
        }

        impl Div<$name> for $name {
            type Output = f64;
            #[inline]
            fn div(self, rhs: $name) -> f64 {
                self.0 / rhs.0
            }
        }

        impl Sum for $name {
            fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
                Self(iter.map(|q| q.0).sum())
            }
        }
    };
}

quantity!(
    /// Magnetic field strength `H`, in amperes per metre (A/m).
    FieldStrength,
    "A/m",
    as_amperes_per_meter
);

quantity!(
    /// Magnetisation `M`, in amperes per metre (A/m).
    Magnetisation,
    "A/m",
    as_amperes_per_meter
);

quantity!(
    /// Magnetic flux density `B`, in tesla (T).
    FluxDensity,
    "T",
    as_tesla
);

impl FieldStrength {
    /// Returns the value in kA/m (the unit of the paper's Fig. 1 x-axis).
    #[inline]
    pub fn as_kiloamperes_per_meter(self) -> f64 {
        self.value() / 1.0e3
    }
}

impl Magnetisation {
    /// Constructs a magnetisation from a value in MA/m (the paper quotes
    /// `Msat = 1.6 MA/m`).
    #[inline]
    pub fn from_megaamperes_per_meter(value: f64) -> Self {
        Self::new(value * 1.0e6)
    }

    /// Normalises the magnetisation against a saturation magnetisation,
    /// returning the dimensionless `M / M_sat` used by the paper's SystemC
    /// code (`mtotal` is stored normalised there).
    #[inline]
    pub fn normalised(self, m_sat: Magnetisation) -> f64 {
        self.value() / m_sat.value()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn field_strength_kiloampere_roundtrip() {
        let h = FieldStrength::new(10_000.0);
        assert_eq!(h.as_amperes_per_meter(), 10_000.0);
        assert_eq!(h.as_kiloamperes_per_meter(), 10.0);
    }

    #[test]
    fn magnetisation_normalisation() {
        let m_sat = Magnetisation::from_megaamperes_per_meter(1.6);
        let m = Magnetisation::new(0.8e6);
        assert!((m.normalised(m_sat) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn arithmetic_and_ordering() {
        let a = FieldStrength::new(2.0);
        let b = FieldStrength::new(3.0);
        assert_eq!((a + b).value(), 5.0);
        assert_eq!((b - a).value(), 1.0);
        assert_eq!((-a).value(), -2.0);
        assert_eq!((a * 2.0).value(), 4.0);
        assert_eq!((2.0 * a).value(), 4.0);
        assert_eq!((b / 3.0).value(), 1.0);
        assert_eq!(b / a, 1.5);
        assert!(a < b);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
    }

    #[test]
    fn signum_and_abs() {
        assert_eq!(FieldStrength::new(-5.0).abs().value(), 5.0);
        assert_eq!(FieldStrength::new(-5.0).signum(), -1.0);
        assert_eq!(FieldStrength::zero().signum(), 0.0);
    }

    #[test]
    fn clamp_limits_value() {
        let v = Magnetisation::new(2.0e6);
        let clamped = v.clamp(Magnetisation::new(-1.6e6), Magnetisation::new(1.6e6));
        assert_eq!(clamped.value(), 1.6e6);
    }

    #[test]
    fn compound_assignment() {
        let mut h = FieldStrength::new(1.0);
        h += FieldStrength::new(2.0);
        assert_eq!(h.value(), 3.0);
        h -= FieldStrength::new(0.5);
        assert_eq!(h.value(), 2.5);
    }

    #[test]
    fn sum_of_quantities() {
        let total: FieldStrength = (1..=4).map(|i| FieldStrength::new(i as f64)).sum();
        assert_eq!(total.value(), 10.0);
    }

    #[test]
    fn display_includes_unit() {
        assert_eq!(FluxDensity::new(1.5).to_string(), "1.5 T");
        assert_eq!(FieldStrength::new(3.0).to_string(), "3 A/m");
    }

    #[test]
    fn non_finite_detection() {
        assert!(!FieldStrength::new(f64::NAN).is_finite());
        assert!(FieldStrength::new(1.0).is_finite());
    }
}
