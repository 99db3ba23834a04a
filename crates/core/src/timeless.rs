//! Timeless integration of the magnetisation slope — the paper's
//! contribution.
//!
//! The integration variable is the applied field `H`, not time.  Given a
//! field increment `ΔH = H_new − H_last`, the irreversible magnetisation is
//! advanced by explicitly integrating the slope of [`crate::slope`] across
//! that increment.  Forward Euler (one slope evaluation per increment) is
//! the paper's method; Heun and RK4-in-`H` are provided for the
//! discretisation ablation, as is optional sub-division of increments larger
//! than `ΔH_max`.

use magnetics::anhysteretic::{Anhysteretic, AnhystereticKind};
use magnetics::material::JaParameters;

use crate::config::{Formulation, JaConfig, SlopeIntegration};
use crate::error::JaError;
use crate::model::JaStatistics;
use crate::slope::{
    evaluate_irreversible_slope, irreversible_slope, reject_opposing_update, FieldDirection,
};
use crate::state::JaState;

/// Outcome of integrating one field increment.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct IncrementResult {
    /// Change of the normalised irreversible magnetisation.
    pub dm_irr: f64,
    /// Number of slope evaluations performed.
    pub slope_evaluations: u32,
    /// Number of evaluations whose raw slope was negative (and clamped when
    /// the guard is active).
    pub negative_slope_events: u32,
    /// Number of sub-updates rejected by the opposing-sign guard.
    pub rejected_updates: u32,
}

/// Iteration cap of the per-sample self-consistency fixed point, shared by
/// [`advance_state`] and the lockstep kernel of [`crate::soa`] (the two must
/// agree for the paths to stay bit-identical).
pub(crate) const FIXED_POINT_ITERATIONS: usize = 8;

/// Convergence tolerance of the per-sample self-consistency fixed point,
/// shared by [`advance_state`] and the lockstep kernel of [`crate::soa`].
pub(crate) const FIXED_POINT_TOLERANCE: f64 = 1e-13;

/// Combines the irreversible magnetisation and the anhysteretic value into
/// the total normalised magnetisation for the given formulation.
#[inline]
pub fn total_magnetisation(formulation: Formulation, c: f64, m_an: f64, m_irr: f64) -> f64 {
    match formulation {
        Formulation::Date2006 => c * m_an / (1.0 + c) + m_irr,
        Formulation::Classic => m_irr + c * (m_an - m_irr),
    }
}

/// Outcome of one forward-Euler sub-step ([`euler_substep`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct EulerSubstep {
    /// The irreversible magnetisation after the guarded update.
    pub m_irr: f64,
    /// The raw slope was negative (and clamped when the guard is active).
    pub negative_slope: bool,
    /// The opposing-sign guard rejected the update.
    pub rejected: bool,
}

/// Applies the opposing-sign guard to a sub-step's update `dm` and returns
/// the advanced `m_irr` and whether the guard rejected the update.
#[inline(always)]
fn guarded_update(m_irr: f64, dm: f64, dh: f64, config: &JaConfig) -> (f64, bool) {
    let dm_guarded = reject_opposing_update(dm, dh, config.reject_opposing_update);
    (m_irr + dm_guarded, dm_guarded != dm)
}

/// One forward-Euler sub-step of the irreversible magnetisation across
/// `h → h + dh` — the paper's update: slope, clamp, `dm = ΔH·slope` and the
/// opposing-sign guard.  `delta` is the sign of the field change and
/// `normalised` the lane's anhysteretic law.
///
/// This is the only copy of the Euler increment math: both
/// [`integrate_field_increment`] and the lane-inner update of the lockstep
/// kernel ([`crate::soa`]) call it, which keeps the two bit-identical by
/// construction.  It is branch-free for a fixed configuration, so the
/// kernel can evaluate it over all lanes under a mask.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
pub(crate) fn euler_substep<F: FnOnce(f64) -> f64>(
    normalised: F,
    params: &JaParameters,
    config: &JaConfig,
    delta: f64,
    h: f64,
    dh: f64,
    m_irr: f64,
    m_total: f64,
) -> EulerSubstep {
    // Mirrors the paper's process ordering: `core()` evaluates the
    // anhysteretic at the *new* field value before `Integral()` advances
    // M_irr with the old magnetisation.
    let eval = irreversible_slope(
        normalised,
        params,
        config.formulation,
        h + dh,
        m_irr,
        m_total,
        delta,
        config.clamp_negative_slope,
    );
    let (m_irr, rejected) = guarded_update(m_irr, dh * eval.slope, dh, config);
    EulerSubstep {
        m_irr,
        negative_slope: eval.raw_slope < 0.0,
        rejected,
    }
}

/// Integrates the irreversible magnetisation across the field increment
/// `h_from → h_to`, starting from the normalised state (`m_irr`,
/// `m_total`).  Returns the accumulated change of `m_irr` and the
/// integration statistics; the caller is responsible for rebuilding
/// `m_total` from the result.
///
/// Forward Euler goes through `euler_substep`, the function the lockstep
/// kernel evaluates lane-parallel.  With subdivision, every sub-step but
/// the last refreshes the total-magnetisation hint the next one starts
/// from; after the last nothing reads it, so it is not evaluated.
pub fn integrate_field_increment(
    params: &JaParameters,
    anhysteretic: &AnhystereticKind,
    config: &JaConfig,
    m_irr: f64,
    m_total: f64,
    h_from: f64,
    h_to: f64,
) -> IncrementResult {
    let mut result = IncrementResult::default();
    let dh_total = h_to - h_from;
    let Some(direction) = FieldDirection::from_increment(dh_total) else {
        return result;
    };

    let substeps = if config.subdivide_increment {
        ((dh_total.abs() / config.dh_max).ceil() as usize).max(1)
    } else {
        1
    };
    let dh = dh_total / substeps as f64;

    let mut m_irr_local = m_irr;
    let mut m_total_local = m_total;
    let mut h = h_from;

    for substep in 1..=substeps {
        let slope_at =
            |h_eval: f64, m_irr_eval: f64, m_total_eval: f64, result: &mut IncrementResult| {
                let eval = evaluate_irreversible_slope(
                    params,
                    anhysteretic,
                    config.formulation,
                    h_eval,
                    m_irr_eval,
                    m_total_eval,
                    direction,
                    config.clamp_negative_slope,
                );
                result.slope_evaluations += 1;
                if eval.raw_slope < 0.0 {
                    result.negative_slope_events += 1;
                }
                eval
            };

        let (m_irr_next, rejected) = match config.integration {
            SlopeIntegration::ForwardEuler => {
                let step = euler_substep(
                    |h_effective| anhysteretic.normalised(h_effective),
                    params,
                    config,
                    direction.delta(),
                    h,
                    dh,
                    m_irr_local,
                    m_total_local,
                );
                result.slope_evaluations += 1;
                result.negative_slope_events += u32::from(step.negative_slope);
                (step.m_irr, step.rejected)
            }
            SlopeIntegration::Heun => {
                let k1 = slope_at(h, m_irr_local, m_total_local, &mut result);
                let m_irr_pred = m_irr_local + dh * k1.slope;
                let m_total_pred =
                    total_magnetisation(config.formulation, params.c, k1.m_an, m_irr_pred);
                let k2 = slope_at(h + dh, m_irr_pred, m_total_pred, &mut result);
                guarded_update(m_irr_local, 0.5 * dh * (k1.slope + k2.slope), dh, config)
            }
            SlopeIntegration::RungeKutta4 => {
                let k1 = slope_at(h, m_irr_local, m_total_local, &mut result);
                let project = |m_irr_est: f64, m_an_hint: f64| {
                    total_magnetisation(config.formulation, params.c, m_an_hint, m_irr_est)
                };
                let m2 = m_irr_local + 0.5 * dh * k1.slope;
                let k2 = slope_at(h + 0.5 * dh, m2, project(m2, k1.m_an), &mut result);
                let m3 = m_irr_local + 0.5 * dh * k2.slope;
                let k3 = slope_at(h + 0.5 * dh, m3, project(m3, k2.m_an), &mut result);
                let m4 = m_irr_local + dh * k3.slope;
                let k4 = slope_at(h + dh, m4, project(m4, k3.m_an), &mut result);
                let dm = dh / 6.0 * (k1.slope + 2.0 * k2.slope + 2.0 * k3.slope + k4.slope);
                guarded_update(m_irr_local, dm, dh, config)
            }
        };
        result.rejected_updates += u32::from(rejected);
        m_irr_local = m_irr_next;

        if substep < substeps {
            // Keep the total-magnetisation hint roughly consistent for the
            // next sub-step; the model recomputes it exactly afterwards.
            let eval_after = evaluate_irreversible_slope(
                params,
                anhysteretic,
                config.formulation,
                h + dh,
                m_irr_local,
                m_total_local,
                direction,
                config.clamp_negative_slope,
            );
            m_total_local =
                total_magnetisation(config.formulation, params.c, eval_after.m_an, m_irr_local);
        }
        h += dh;
    }

    result.dm_irr = m_irr_local - m_irr;
    result
}

/// Advances one magnetisation state by one applied-field sample — the whole
/// "timeless" loop of the paper, factored out of
/// [`JilesAtherton::apply_field`](crate::model::JilesAtherton::apply_field)
/// so the scalar model and the lockstep [`SoaBatch`](crate::soa::SoaBatch)
/// share one definition of the per-step increment math (and therefore stay
/// bit-identical by construction).
///
/// If the field has moved by at least `ΔH_max` since the last update, the
/// irreversible magnetisation is advanced by integrating the slope across
/// the increment; the reversible part is then recomputed algebraically via
/// a short fixed-point iteration.
///
/// # Errors
///
/// Returns [`JaError::NonFiniteField`] for a NaN/infinite field and
/// [`JaError::StateDiverged`] if the state stops being finite (possible
/// only with the guards disabled).
#[inline]
pub fn advance_state(
    params: &JaParameters,
    anhysteretic: &AnhystereticKind,
    config: &JaConfig,
    state: &mut JaState,
    stats: &mut JaStatistics,
    h: f64,
) -> Result<(), JaError> {
    if !h.is_finite() {
        return Err(JaError::NonFiniteField { value: h });
    }
    stats.samples += 1;

    // The paper's monitorH: only integrate when the accumulated field
    // change exceeds the threshold.
    let dh_accumulated = h - state.h_last_update;
    if dh_accumulated.abs() >= config.dh_max {
        let result = integrate_field_increment(
            params,
            anhysteretic,
            config,
            state.m_irr,
            state.m_total,
            state.h_last_update,
            h,
        );
        state.m_irr += result.dm_irr;
        state.h_last_update = h;
        state.updates += 1;
        stats.updates += 1;
        stats.slope_evaluations += u64::from(result.slope_evaluations);
        stats.negative_slope_events += u64::from(result.negative_slope_events);
        stats.rejected_updates += u64::from(result.rejected_updates);
    }

    // The paper's core(): effective field, anhysteretic, reversible and
    // total magnetisation, flux density.  The SystemC process settles
    // over delta cycles because `core()` re-evaluates when the total
    // magnetisation it wrote changes; the same self-consistency is
    // obtained here with a short fixed-point iteration (the map is a
    // strong contraction for physical parameter sets).
    state.h = h;
    let m_sat = params.m_sat.value();
    let mut m_total = state.m_total;
    let mut m_an = state.m_an;
    for _ in 0..FIXED_POINT_ITERATIONS {
        let h_effective = h + params.alpha * m_sat * m_total;
        m_an = anhysteretic.normalised(h_effective);
        let next = total_magnetisation(config.formulation, params.c, m_an, state.m_irr);
        let converged = (next - m_total).abs() < FIXED_POINT_TOLERANCE;
        m_total = next;
        if converged {
            break;
        }
    }
    state.m_an = m_an;
    state.m_total = m_total;
    state.m_rev = state.m_total - state.m_irr;

    if !state.is_finite() {
        return Err(JaError::StateDiverged { at_field: h });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use magnetics::material::JaParameters;

    fn setup() -> (JaParameters, AnhystereticKind, JaConfig) {
        let p = JaParameters::date2006();
        let a = p.default_anhysteretic();
        (p, a, JaConfig::default())
    }

    #[test]
    fn zero_increment_is_a_no_op() {
        let (p, a, c) = setup();
        let r = integrate_field_increment(&p, &a, &c, 0.1, 0.1, 500.0, 500.0);
        assert_eq!(r.dm_irr, 0.0);
        assert_eq!(r.slope_evaluations, 0);
    }

    #[test]
    fn rising_increment_increases_m_irr() {
        let (p, a, c) = setup();
        let r = integrate_field_increment(&p, &a, &c, 0.0, 0.0, 0.0, 100.0);
        assert!(r.dm_irr > 0.0);
        assert_eq!(r.slope_evaluations, 1); // single forward-Euler evaluation
    }

    #[test]
    fn falling_increment_from_saturation_decreases_m_irr() {
        let (p, a, c) = setup();
        let r = integrate_field_increment(&p, &a, &c, 0.85, 0.9, 10_000.0, 9_900.0);
        assert!(r.dm_irr <= 0.0);
    }

    #[test]
    fn total_magnetisation_formulations() {
        // Date2006: c·m_an/(1+c) + m_irr ; Classic: m_irr + c(m_an − m_irr)
        let m = total_magnetisation(Formulation::Date2006, 0.1, 0.5, 0.2);
        assert!((m - (0.1 * 0.5 / 1.1 + 0.2)).abs() < 1e-12);
        let m = total_magnetisation(Formulation::Classic, 0.1, 0.5, 0.2);
        assert!((m - (0.2 + 0.1 * 0.3)).abs() < 1e-12);
    }

    #[test]
    fn heun_and_rk4_use_more_evaluations() {
        let (p, a, mut c) = setup();
        c.integration = SlopeIntegration::Heun;
        let heun = integrate_field_increment(&p, &a, &c, 0.0, 0.0, 0.0, 10.0);
        assert_eq!(heun.slope_evaluations, 2);
        c.integration = SlopeIntegration::RungeKutta4;
        let rk4 = integrate_field_increment(&p, &a, &c, 0.0, 0.0, 0.0, 10.0);
        assert_eq!(rk4.slope_evaluations, 4);
        // All methods should agree on the direction of the change.
        assert!(heun.dm_irr > 0.0);
        assert!(rk4.dm_irr > 0.0);
    }

    #[test]
    fn subdivision_splits_large_increment() {
        let (p, a, mut c) = setup();
        c.dh_max = 10.0;
        c.subdivide_increment = true;
        let r = integrate_field_increment(&p, &a, &c, 0.0, 0.0, 0.0, 100.0);
        assert_eq!(r.slope_evaluations, 10);
        assert!(r.dm_irr > 0.0);
    }

    #[test]
    fn opposing_update_guard_counts_rejections() {
        // Rising field but with the state far above the anhysteretic and the
        // clamp disabled, the raw slope is negative, so dm·dh < 0 and the
        // update must be rejected.
        let (p, a, mut c) = setup();
        c.clamp_negative_slope = false;
        let r = integrate_field_increment(&p, &a, &c, 0.9, 0.9, 100.0, 150.0);
        assert_eq!(r.dm_irr, 0.0);
        assert_eq!(r.rejected_updates, 1);
        assert!(r.negative_slope_events >= 1);
    }

    #[test]
    fn guards_disabled_allows_negative_updates() {
        let (p, a, mut c) = setup();
        c.clamp_negative_slope = false;
        c.reject_opposing_update = false;
        let r = integrate_field_increment(&p, &a, &c, 0.9, 0.9, 100.0, 150.0);
        assert!(r.dm_irr < 0.0);
    }

    #[test]
    fn euler_accuracy_improves_with_subdivision() {
        // Integrate the initial magnetisation curve 0 -> 5000 A/m in one go
        // versus sub-divided; the sub-divided result is the reference.
        let (p, a, c) = setup();
        let coarse = integrate_field_increment(&p, &a, &c, 0.0, 0.0, 0.0, 5000.0);
        let mut c_fine = c;
        c_fine.subdivide_increment = true;
        c_fine.dh_max = 5.0;
        let fine = integrate_field_increment(&p, &a, &c_fine, 0.0, 0.0, 0.0, 5000.0);
        // A single Euler step across 5 kA/m grossly overshoots (this is why
        // the technique needs a small ΔH_max); the sub-divided integration
        // stays physical.
        assert!(fine.dm_irr >= 0.0 && fine.dm_irr <= 1.0);
        assert!(coarse.dm_irr > fine.dm_irr);
        assert!((coarse.dm_irr - fine.dm_irr).abs() > 1e-3);
    }
}
