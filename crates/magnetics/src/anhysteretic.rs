//! Anhysteretic magnetisation functions.
//!
//! The Jiles–Atherton model drives the magnetisation towards the
//! *anhysteretic* curve `M_an(H_e)`, the magnetisation a material would reach
//! at the effective field `H_e = H + α·M` in the absence of pinning.
//!
//! Three families are provided:
//!
//! * [`Langevin`] — the original Jiles–Atherton form
//!   `M_an = M_sat · (coth(x) − 1/x)`, `x = H_e / a`;
//! * [`ModifiedLangevin`] — the arctangent form used by the paper's SystemC
//!   code (`Lang_mod`): `M_an = M_sat · (2/π) · atan(H_e / a)`, taken from
//!   Wilson et al.;
//! * [`DoubleArctan`] — a two-shape-parameter arctangent blend that gives a
//!   role to the `a2` parameter the paper lists alongside `a`
//!   (`a = 2000 A/m`, `a2 = 3500 A/m`) but never shows in code.  The blend is
//!   `M_an = M_sat · (2/π) · (w·atan(H_e/a) + (1−w)·atan(H_e/a2))`.
//!
//! All functions are odd, monotonically increasing and saturate at
//! `±M_sat`; these invariants are exercised by the property tests.
//!
//! The arctangent-based laws evaluate [`crate::fastmath::atan`] — a
//! polynomial agreeing with libm to 2 ulp whose fixed, inlineable operation
//! sequence lets the lockstep SoA kernel pipeline and vectorise lanes while
//! staying bit-identical to the scalar path (both call the same function).

use crate::error::MagneticsError;
use crate::units::{FieldStrength, Magnetisation};

/// An anhysteretic magnetisation law `M_an(H_e)`.
///
/// Implementations work on the *normalised* magnetisation `m_an = M_an /
/// M_sat` so the same object can serve both the absolute-unit API of this
/// crate and the normalised state variables the paper's SystemC code keeps
/// (`man`, `mtotal` are all normalised there).
pub trait Anhysteretic {
    /// Normalised anhysteretic magnetisation `m_an(H_e) ∈ (−1, 1)` for an
    /// effective field in A/m.
    fn normalised(&self, h_effective: f64) -> f64;

    /// Derivative `d m_an / d H_e` in (A/m)⁻¹.
    fn derivative_normalised(&self, h_effective: f64) -> f64;

    /// Absolute anhysteretic magnetisation `M_an = M_sat · m_an(H_e)`.
    fn magnetisation(&self, h_effective: FieldStrength, m_sat: Magnetisation) -> Magnetisation {
        Magnetisation::new(m_sat.value() * self.normalised(h_effective.value()))
    }

    /// Absolute slope `d M_an / d H_e` (dimensionless, since both are A/m).
    fn slope(&self, h_effective: FieldStrength, m_sat: Magnetisation) -> f64 {
        m_sat.value() * self.derivative_normalised(h_effective.value())
    }
}

/// Classic Langevin anhysteretic: `m_an(H_e) = coth(H_e/a) − a/H_e`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Langevin {
    a: f64,
}

impl Langevin {
    /// Creates a Langevin law with shape parameter `a` (A/m).
    ///
    /// # Errors
    ///
    /// Returns [`MagneticsError::InvalidParameter`] when `a` is not a finite
    /// strictly positive number.
    pub fn new(a: f64) -> Result<Self, MagneticsError> {
        validate_shape_parameter("a", a)?;
        Ok(Self { a })
    }

    /// The shape parameter `a` in A/m.
    pub fn a(&self) -> f64 {
        self.a
    }
}

impl Anhysteretic for Langevin {
    fn normalised(&self, h_effective: f64) -> f64 {
        langevin_function(h_effective / self.a)
    }

    fn derivative_normalised(&self, h_effective: f64) -> f64 {
        langevin_derivative(h_effective / self.a) / self.a
    }
}

/// Modified (arctangent) anhysteretic used by the paper:
/// `m_an(H_e) = (2/π) · atan(H_e / a)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModifiedLangevin {
    a: f64,
}

impl ModifiedLangevin {
    /// Creates a modified-Langevin law with shape parameter `a` (A/m).
    ///
    /// # Errors
    ///
    /// Returns [`MagneticsError::InvalidParameter`] when `a` is not a finite
    /// strictly positive number.
    pub fn new(a: f64) -> Result<Self, MagneticsError> {
        validate_shape_parameter("a", a)?;
        Ok(Self { a })
    }

    /// The shape parameter `a` in A/m.
    pub fn a(&self) -> f64 {
        self.a
    }
}

impl Anhysteretic for ModifiedLangevin {
    fn normalised(&self, h_effective: f64) -> f64 {
        modified_langevin(h_effective, self.a)
    }

    fn derivative_normalised(&self, h_effective: f64) -> f64 {
        let x = h_effective / self.a;
        std::f64::consts::FRAC_2_PI / (self.a * (1.0 + x * x))
    }
}

/// The paper's modified Langevin law `m_an(H_e) = (2/π) · atan(H_e / a)`
/// for a shape parameter `a` passed per call: the body of
/// [`ModifiedLangevin::normalised`], and the law the lockstep SoA kernel
/// evaluates with each lane's own `a`, so both run the same code.  No
/// validation: an `a` that is not finite and positive yields a meaningless
/// value, not a panic.
#[inline(always)]
#[must_use]
pub fn modified_langevin(h_effective: f64, a: f64) -> f64 {
    std::f64::consts::FRAC_2_PI * crate::fastmath::atan(h_effective / a)
}

/// Two-parameter arctangent blend giving a role to the paper's `a2`:
/// `m_an(H_e) = (2/π) · (w·atan(H_e/a) + (1−w)·atan(H_e/a2))`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DoubleArctan {
    a: f64,
    a2: f64,
    weight: f64,
}

impl DoubleArctan {
    /// Creates a blended arctangent law from two shape parameters (A/m) and
    /// a blend weight in `[0, 1]` applied to the `a` term.
    ///
    /// # Errors
    ///
    /// Returns [`MagneticsError::InvalidParameter`] when either shape
    /// parameter is not finite and positive, or the weight is outside
    /// `[0, 1]`.
    pub fn new(a: f64, a2: f64, weight: f64) -> Result<Self, MagneticsError> {
        validate_shape_parameter("a", a)?;
        validate_shape_parameter("a2", a2)?;
        if !(0.0..=1.0).contains(&weight) || !weight.is_finite() {
            return Err(MagneticsError::InvalidParameter {
                name: "weight",
                value: weight,
                requirement: "0 <= weight <= 1",
            });
        }
        Ok(Self { a, a2, weight })
    }

    /// Creates the blend with the paper's parameters (`a = 2000 A/m`,
    /// `a2 = 3500 A/m`) and an even 50/50 weight.
    pub fn date2006() -> Self {
        Self {
            a: 2000.0,
            a2: 3500.0,
            weight: 0.5,
        }
    }

    /// Primary shape parameter `a` (A/m).
    pub fn a(&self) -> f64 {
        self.a
    }

    /// Secondary shape parameter `a2` (A/m).
    pub fn a2(&self) -> f64 {
        self.a2
    }

    /// Blend weight applied to the `a` term.
    pub fn weight(&self) -> f64 {
        self.weight
    }
}

impl Anhysteretic for DoubleArctan {
    fn normalised(&self, h_effective: f64) -> f64 {
        let t1 = crate::fastmath::atan(h_effective / self.a);
        let t2 = crate::fastmath::atan(h_effective / self.a2);
        std::f64::consts::FRAC_2_PI * (self.weight * t1 + (1.0 - self.weight) * t2)
    }

    fn derivative_normalised(&self, h_effective: f64) -> f64 {
        let x1 = h_effective / self.a;
        let x2 = h_effective / self.a2;
        std::f64::consts::FRAC_2_PI
            * (self.weight / (self.a * (1.0 + x1 * x1))
                + (1.0 - self.weight) / (self.a2 * (1.0 + x2 * x2)))
    }
}

/// Enumeration of the supported anhysteretic laws, convenient when a model
/// needs to store "some anhysteretic" without generics or boxing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AnhystereticKind {
    /// Classic Langevin `coth(x) − 1/x`.
    Langevin(Langevin),
    /// Arctangent form used by the paper.
    ModifiedLangevin(ModifiedLangevin),
    /// Two-parameter arctangent blend.
    DoubleArctan(DoubleArctan),
}

impl Anhysteretic for AnhystereticKind {
    fn normalised(&self, h_effective: f64) -> f64 {
        match self {
            AnhystereticKind::Langevin(f) => f.normalised(h_effective),
            AnhystereticKind::ModifiedLangevin(f) => f.normalised(h_effective),
            AnhystereticKind::DoubleArctan(f) => f.normalised(h_effective),
        }
    }

    fn derivative_normalised(&self, h_effective: f64) -> f64 {
        match self {
            AnhystereticKind::Langevin(f) => f.derivative_normalised(h_effective),
            AnhystereticKind::ModifiedLangevin(f) => f.derivative_normalised(h_effective),
            AnhystereticKind::DoubleArctan(f) => f.derivative_normalised(h_effective),
        }
    }
}

impl From<Langevin> for AnhystereticKind {
    fn from(value: Langevin) -> Self {
        AnhystereticKind::Langevin(value)
    }
}

impl From<ModifiedLangevin> for AnhystereticKind {
    fn from(value: ModifiedLangevin) -> Self {
        AnhystereticKind::ModifiedLangevin(value)
    }
}

impl From<DoubleArctan> for AnhystereticKind {
    fn from(value: DoubleArctan) -> Self {
        AnhystereticKind::DoubleArctan(value)
    }
}

/// The Langevin function `L(x) = coth(x) − 1/x`, evaluated with a Taylor
/// expansion near zero to avoid catastrophic cancellation.
pub fn langevin_function(x: f64) -> f64 {
    if x.abs() < 1e-4 {
        // L(x) = x/3 - x^3/45 + 2x^5/945 - ...
        let x2 = x * x;
        x / 3.0 - x * x2 / 45.0 + 2.0 * x * x2 * x2 / 945.0
    } else if x.abs() > 350.0 {
        // coth(x) -> ±1 and 1/x -> 0 well before f64 overflows in tanh.
        x.signum() - 1.0 / x
    } else {
        1.0 / x.tanh() - 1.0 / x
    }
}

/// Derivative of the Langevin function, `L'(x) = 1/x² − 1/sinh²(x)`.
pub fn langevin_derivative(x: f64) -> f64 {
    if x.abs() < 1e-4 {
        // L'(x) = 1/3 - x^2/15 + 2x^4/189 - ...
        let x2 = x * x;
        1.0 / 3.0 - x2 / 15.0 + 2.0 * x2 * x2 / 189.0
    } else if x.abs() > 350.0 {
        1.0 / (x * x)
    } else {
        let s = x.sinh();
        1.0 / (x * x) - 1.0 / (s * s)
    }
}

fn validate_shape_parameter(name: &'static str, value: f64) -> Result<(), MagneticsError> {
    if !value.is_finite() || value <= 0.0 {
        return Err(MagneticsError::InvalidParameter {
            name,
            value,
            requirement: "finite and > 0",
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn langevin_function_small_argument_matches_series() {
        let x = 1e-6;
        assert!((langevin_function(x) - x / 3.0).abs() < 1e-18);
    }

    #[test]
    fn langevin_function_is_odd() {
        for &x in &[0.1, 0.5, 1.0, 3.0, 10.0, 100.0] {
            assert!((langevin_function(x) + langevin_function(-x)).abs() < 1e-12);
        }
    }

    #[test]
    fn langevin_function_saturates_at_one() {
        assert!((langevin_function(1e6) - 1.0).abs() < 1e-5);
        assert!((langevin_function(-1e6) + 1.0).abs() < 1e-5);
    }

    #[test]
    fn langevin_derivative_matches_finite_difference() {
        for &x in &[0.05_f64, 0.3, 1.0, 2.0, 5.0, 20.0] {
            let h = 1e-6 * x.max(1.0);
            let fd = (langevin_function(x + h) - langevin_function(x - h)) / (2.0 * h);
            assert!(
                (langevin_derivative(x) - fd).abs() < 1e-6,
                "x = {x}: analytic {} vs fd {}",
                langevin_derivative(x),
                fd
            );
        }
    }

    #[test]
    fn langevin_rejects_non_positive_shape() {
        assert!(Langevin::new(0.0).is_err());
        assert!(Langevin::new(-5.0).is_err());
        assert!(Langevin::new(f64::NAN).is_err());
        assert!(Langevin::new(2000.0).is_ok());
    }

    #[test]
    fn modified_langevin_matches_paper_formula() {
        // The SystemC code computes (2/3.14159265) * atan(x).
        let f = ModifiedLangevin::new(2000.0).unwrap();
        let he = 4000.0;
        let expected = (2.0 / std::f64::consts::PI) * (he / 2000.0_f64).atan();
        assert!((f.normalised(he) - expected).abs() < 1e-12);
    }

    #[test]
    fn modified_langevin_derivative_matches_finite_difference() {
        let f = ModifiedLangevin::new(2000.0).unwrap();
        for &he in &[-9000.0, -100.0, 0.0, 250.0, 5000.0] {
            let h = 1e-3;
            let fd = (f.normalised(he + h) - f.normalised(he - h)) / (2.0 * h);
            assert!((f.derivative_normalised(he) - fd).abs() < 1e-9);
        }
    }

    #[test]
    fn double_arctan_reduces_to_modified_when_weight_is_one() {
        let blend = DoubleArctan::new(2000.0, 3500.0, 1.0).unwrap();
        let single = ModifiedLangevin::new(2000.0).unwrap();
        for &he in &[-8000.0, -1000.0, 0.0, 500.0, 12_000.0] {
            assert!((blend.normalised(he) - single.normalised(he)).abs() < 1e-12);
        }
    }

    #[test]
    fn double_arctan_rejects_bad_weight() {
        assert!(DoubleArctan::new(2000.0, 3500.0, 1.5).is_err());
        assert!(DoubleArctan::new(2000.0, 3500.0, -0.1).is_err());
        assert!(DoubleArctan::new(2000.0, 3500.0, f64::NAN).is_err());
    }

    #[test]
    fn date2006_blend_uses_paper_parameters() {
        let blend = DoubleArctan::date2006();
        assert_eq!(blend.a(), 2000.0);
        assert_eq!(blend.a2(), 3500.0);
        assert_eq!(blend.weight(), 0.5);
    }

    #[test]
    fn absolute_magnetisation_scales_with_m_sat() {
        let f = ModifiedLangevin::new(2000.0).unwrap();
        let m_sat = Magnetisation::new(1.6e6);
        let m = f.magnetisation(FieldStrength::new(2000.0), m_sat);
        let expected = 1.6e6 * (2.0 / std::f64::consts::PI) * 1.0_f64.atan();
        assert!((m.value() - expected).abs() < 1e-6);
    }

    #[test]
    fn kind_dispatch_matches_inner() {
        let inner = ModifiedLangevin::new(2000.0).unwrap();
        let kind: AnhystereticKind = inner.into();
        assert_eq!(kind.normalised(1234.0), inner.normalised(1234.0));
        assert_eq!(
            kind.derivative_normalised(1234.0),
            inner.derivative_normalised(1234.0)
        );
    }

    proptest! {
        #[test]
        fn prop_langevin_bounded_and_odd(x in -1.0e5_f64..1.0e5) {
            let l = langevin_function(x);
            prop_assert!(l.abs() <= 1.0 + 1e-12);
            prop_assert!((l + langevin_function(-x)).abs() < 1e-9);
        }

        #[test]
        fn prop_modified_langevin_monotone(a in 100.0_f64..10_000.0,
                                           h1 in -50_000.0_f64..50_000.0,
                                           dh in 1.0_f64..10_000.0) {
            let f = ModifiedLangevin::new(a).unwrap();
            prop_assert!(f.normalised(h1 + dh) > f.normalised(h1));
        }

        #[test]
        fn prop_double_arctan_bounded(a in 100.0_f64..10_000.0,
                                      a2 in 100.0_f64..10_000.0,
                                      w in 0.0_f64..1.0,
                                      he in -1.0e6_f64..1.0e6) {
            let f = DoubleArctan::new(a, a2, w).unwrap();
            let m = f.normalised(he);
            prop_assert!(m.abs() < 1.0);
            prop_assert!(f.derivative_normalised(he) > 0.0);
        }

        #[test]
        fn prop_langevin_derivative_positive(x in -200.0_f64..200.0) {
            prop_assert!(langevin_derivative(x) > 0.0);
        }
    }
}
