//! The magnetisation slope equation (Eq. 1 of the paper) and its guards.

use magnetics::anhysteretic::{Anhysteretic, AnhystereticKind};
use magnetics::material::JaParameters;

use crate::config::Formulation;

/// Direction of the applied-field change, which selects the sign of the
/// pinning term `δ·k` in the slope denominator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FieldDirection {
    /// `dH > 0`.
    Rising,
    /// `dH < 0`.
    Falling,
}

impl FieldDirection {
    /// Determines the direction from a field increment; `None` for a zero
    /// increment (no update is performed in that case).
    pub fn from_increment(dh: f64) -> Option<Self> {
        if dh > 0.0 {
            Some(FieldDirection::Rising)
        } else if dh < 0.0 {
            Some(FieldDirection::Falling)
        } else {
            None
        }
    }

    /// The sign `δ` (+1 rising, −1 falling).
    pub fn delta(self) -> f64 {
        match self {
            FieldDirection::Rising => 1.0,
            FieldDirection::Falling => -1.0,
        }
    }
}

/// Result of one slope evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SlopeEvaluation {
    /// Effective field `H_e = H + α·M` (A/m).
    pub h_effective: f64,
    /// Normalised anhysteretic magnetisation at `H_e`.
    pub m_an: f64,
    /// Raw irreversible slope `dm_irr/dH` (normalised, per A/m) before any
    /// guard is applied — may be negative, which is the unphysical
    /// behaviour the paper's clamp removes.
    pub raw_slope: f64,
    /// Guarded slope actually used for integration.
    pub slope: f64,
}

/// Evaluates the irreversible magnetisation slope at a trial field `h`.
///
/// `m_irr` and `m_total` are the normalised state variables; which of them
/// drives the slope depends on the [`Formulation`]:
///
/// * [`Formulation::Date2006`] (the paper's listing) drives it with
///   `M_an − M_total`;
/// * [`Formulation::Classic`] drives it with `M_an − M_irr`.
///
/// With `clamp_negative` the slope is clamped to be non-negative — the
/// paper's `if (dmdh1 > 0.0)` guard.
#[allow(clippy::too_many_arguments)] // mirrors the terms of Eq. 1 one-to-one
pub fn evaluate_irreversible_slope(
    params: &JaParameters,
    anhysteretic: &AnhystereticKind,
    formulation: Formulation,
    h: f64,
    m_irr: f64,
    m_total: f64,
    direction: FieldDirection,
    clamp_negative: bool,
) -> SlopeEvaluation {
    irreversible_slope(
        |h_effective| anhysteretic.normalised(h_effective),
        params,
        formulation,
        h,
        m_irr,
        m_total,
        direction.delta(),
        clamp_negative,
    )
}

/// [`evaluate_irreversible_slope`] with the anhysteretic law given as a
/// closure `H_e ↦ m_an` and the direction as its sign `δ`: the one copy of
/// Eq. 1, generic so the lockstep kernel can inline its per-lane law and
/// evaluate many lanes branch-free.
#[allow(clippy::too_many_arguments)] // mirrors the terms of Eq. 1 one-to-one
#[inline(always)]
pub(crate) fn irreversible_slope<F: FnOnce(f64) -> f64>(
    normalised: F,
    params: &JaParameters,
    formulation: Formulation,
    h: f64,
    m_irr: f64,
    m_total: f64,
    delta: f64,
    clamp_negative: bool,
) -> SlopeEvaluation {
    let m_sat = params.m_sat.value();
    let h_effective = h + params.alpha * m_sat * m_total;
    let m_an = normalised(h_effective);
    let m_drive = match formulation {
        Formulation::Date2006 => m_total,
        Formulation::Classic => m_irr,
    };
    let delta_m = m_an - m_drive;
    let dk = delta * params.k;
    let denominator = (1.0 + params.c) * (dk - params.alpha * m_sat * delta_m);
    let raw_slope = if denominator.abs() < f64::MIN_POSITIVE {
        // Degenerate denominator: treat as an unbounded slope of the sign of
        // delta_m; the guards (and the caller's update rejection) keep the
        // state finite.
        delta_m.signum() * f64::MAX.sqrt()
    } else {
        delta_m / denominator
    };
    let slope = if clamp_negative && raw_slope < 0.0 {
        0.0
    } else {
        raw_slope
    };
    SlopeEvaluation {
        h_effective,
        m_an,
        raw_slope,
        slope,
    }
}

/// Evaluates the *total* magnetisation slope `dM/dH` (normalised, per A/m)
/// of Eq. 1 — irreversible term plus the reversible term
/// `c/(1+c)·dM_an/dH` — as used by the conventional time-domain formulation.
pub fn evaluate_total_slope(
    params: &JaParameters,
    anhysteretic: &AnhystereticKind,
    h: f64,
    m_total: f64,
    direction: FieldDirection,
    clamp_negative: bool,
) -> f64 {
    let eval = evaluate_irreversible_slope(
        params,
        anhysteretic,
        Formulation::Date2006,
        h,
        m_total,
        m_total,
        direction,
        clamp_negative,
    );
    let reversible =
        params.c / (1.0 + params.c) * anhysteretic.derivative_normalised(eval.h_effective);
    let total = eval.slope + reversible;
    if clamp_negative {
        total.max(0.0)
    } else {
        total
    }
}

/// Applies the paper's second guard: a magnetisation update whose sign
/// opposes the field increment is rejected (`if (dm*dh < 0) dm = 0`).
pub fn reject_opposing_update(dm: f64, dh: f64, enabled: bool) -> f64 {
    if enabled && dm * dh < 0.0 {
        0.0
    } else {
        dm
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use magnetics::material::JaParameters;

    fn setup() -> (JaParameters, AnhystereticKind) {
        let p = JaParameters::date2006();
        let a = p.default_anhysteretic();
        (p, a)
    }

    #[test]
    fn direction_from_increment() {
        assert_eq!(
            FieldDirection::from_increment(5.0),
            Some(FieldDirection::Rising)
        );
        assert_eq!(
            FieldDirection::from_increment(-5.0),
            Some(FieldDirection::Falling)
        );
        assert_eq!(FieldDirection::from_increment(0.0), None);
        assert_eq!(FieldDirection::Rising.delta(), 1.0);
        assert_eq!(FieldDirection::Falling.delta(), -1.0);
    }

    #[test]
    fn rising_demagnetised_slope_is_positive() {
        let (p, a) = setup();
        let eval = evaluate_irreversible_slope(
            &p,
            &a,
            Formulation::Date2006,
            1000.0,
            0.0,
            0.0,
            FieldDirection::Rising,
            true,
        );
        assert!(eval.slope > 0.0);
        assert!(eval.m_an > 0.0);
        assert_eq!(eval.slope, eval.raw_slope);
        // With M = 0, He = H.
        assert!((eval.h_effective - 1000.0).abs() < 1e-12);
    }

    #[test]
    fn falling_from_saturation_slope_is_positive() {
        // Coming back down from positive saturation, M_an < M, delta_m < 0,
        // dk < 0: the slope should again be positive (B falls as H falls).
        let (p, a) = setup();
        let eval = evaluate_irreversible_slope(
            &p,
            &a,
            Formulation::Date2006,
            2000.0,
            0.9,
            0.9,
            FieldDirection::Falling,
            true,
        );
        assert!(eval.m_an < 0.9);
        assert!(eval.slope >= 0.0);
    }

    #[test]
    fn clamp_removes_negative_slope() {
        // Rising field but magnetisation above the anhysteretic: raw slope
        // is negative, the guard clamps it to zero.
        let (p, a) = setup();
        let eval = evaluate_irreversible_slope(
            &p,
            &a,
            Formulation::Date2006,
            100.0,
            0.9,
            0.9,
            FieldDirection::Rising,
            true,
        );
        assert!(eval.raw_slope < 0.0);
        assert_eq!(eval.slope, 0.0);

        let unclamped = evaluate_irreversible_slope(
            &p,
            &a,
            Formulation::Date2006,
            100.0,
            0.9,
            0.9,
            FieldDirection::Rising,
            false,
        );
        assert!(unclamped.slope < 0.0);
    }

    #[test]
    fn formulations_differ_when_reversible_present() {
        let (p, a) = setup();
        let date = evaluate_irreversible_slope(
            &p,
            &a,
            Formulation::Date2006,
            3000.0,
            0.2,
            0.3,
            FieldDirection::Rising,
            true,
        );
        let classic = evaluate_irreversible_slope(
            &p,
            &a,
            Formulation::Classic,
            3000.0,
            0.2,
            0.3,
            FieldDirection::Rising,
            true,
        );
        assert!(date.slope != classic.slope);
    }

    #[test]
    fn total_slope_includes_reversible_term() {
        let (p, a) = setup();
        let irr = evaluate_irreversible_slope(
            &p,
            &a,
            Formulation::Date2006,
            500.0,
            0.0,
            0.0,
            FieldDirection::Rising,
            true,
        )
        .slope;
        let total = evaluate_total_slope(&p, &a, 500.0, 0.0, FieldDirection::Rising, true);
        assert!(total > irr);
    }

    #[test]
    fn opposing_update_guard() {
        assert_eq!(reject_opposing_update(0.1, -1.0, true), 0.0);
        assert_eq!(reject_opposing_update(0.1, 1.0, true), 0.1);
        assert_eq!(reject_opposing_update(-0.1, 1.0, true), 0.0);
        assert_eq!(reject_opposing_update(0.1, -1.0, false), 0.1);
    }

    #[test]
    fn near_singular_denominator_stays_finite() {
        // Choose a state where α·M_sat·Δm ≈ δk so the denominator nearly
        // vanishes; the evaluation must still return a finite slope.
        let (p, a) = setup();
        // Δm needed: k / (α·M_sat) = 4000 / 4800 = 0.8333…
        let eval = evaluate_irreversible_slope(
            &p,
            &a,
            Formulation::Date2006,
            9000.0,
            0.0,
            0.0,
            FieldDirection::Rising,
            true,
        );
        assert!(eval.slope.is_finite());
    }
}
