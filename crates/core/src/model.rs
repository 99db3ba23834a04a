//! The user-facing Jiles–Atherton model with timeless slope integration.

use magnetics::anhysteretic::AnhystereticKind;
use magnetics::bh::BhPoint;
use magnetics::constants::MU0;
use magnetics::material::JaParameters;
use magnetics::units::{FieldStrength, FluxDensity, Magnetisation};

use crate::config::JaConfig;
use crate::error::JaError;
use crate::state::JaState;
use crate::timeless::advance_state;

/// Cumulative statistics of a model instance — the cost metrics reported by
/// the runtime experiments.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JaStatistics {
    /// Field samples applied.
    pub samples: u64,
    /// Slope-integration updates actually performed (field moved ≥ ΔH_max).
    pub updates: u64,
    /// Total slope evaluations.
    pub slope_evaluations: u64,
    /// Evaluations whose raw slope was negative.
    pub negative_slope_events: u64,
    /// Updates rejected by the opposing-sign guard.
    pub rejected_updates: u64,
}

/// The Jiles–Atherton hysteresis model with timeless discretisation of the
/// magnetisation slope.
///
/// Drive it by feeding successive applied-field values to
/// [`apply_field`](JilesAtherton::apply_field); the model decides internally
/// when the accumulated field change warrants a slope-integration update
/// (the paper's `monitorH` / `Integral` processes collapsed into a direct
/// call).
#[derive(Debug, Clone)]
pub struct JilesAtherton {
    params: JaParameters,
    anhysteretic: AnhystereticKind,
    config: JaConfig,
    state: JaState,
    stats: JaStatistics,
}

impl JilesAtherton {
    /// Creates a model with the default configuration (the paper's).
    ///
    /// # Errors
    ///
    /// Returns [`JaError::Material`] for an invalid parameter set.
    pub fn new(params: JaParameters) -> Result<Self, JaError> {
        Self::with_config(params, JaConfig::default())
    }

    /// Creates a model with an explicit configuration.
    ///
    /// # Errors
    ///
    /// Returns [`JaError::Material`] for an invalid parameter set or
    /// [`JaError::InvalidConfig`] for an invalid configuration.
    pub fn with_config(params: JaParameters, config: JaConfig) -> Result<Self, JaError> {
        params.validate()?;
        config.validate()?;
        let anhysteretic = config.anhysteretic.build(&params);
        Ok(Self {
            params,
            anhysteretic,
            config,
            state: JaState::demagnetised(),
            stats: JaStatistics::default(),
        })
    }

    /// The material parameters.
    pub fn params(&self) -> &JaParameters {
        &self.params
    }

    /// The model configuration.
    pub fn config(&self) -> &JaConfig {
        &self.config
    }

    /// The current magnetisation state.
    pub fn state(&self) -> &JaState {
        &self.state
    }

    /// The cumulative statistics.
    pub fn statistics(&self) -> JaStatistics {
        self.stats
    }

    /// Resets the core to the demagnetised state and clears the statistics.
    pub fn reset(&mut self) {
        self.state = JaState::demagnetised();
        self.stats = JaStatistics::default();
    }

    /// Overwrites the magnetisation state (e.g. to start from remanence).
    pub fn set_state(&mut self, state: JaState) {
        self.state = state;
    }

    /// Current flux density.
    pub fn flux_density(&self) -> FluxDensity {
        self.state.flux_density(&self.params)
    }

    /// Current total magnetisation.
    pub fn magnetisation(&self) -> Magnetisation {
        self.state.magnetisation(&self.params)
    }

    /// Applies a new value of the external field and returns the resulting
    /// sample.
    ///
    /// This is the whole "timeless" loop of the paper: if the field has
    /// moved by at least `ΔH_max` since the last update, the irreversible
    /// magnetisation is advanced by integrating the slope across the
    /// increment; the reversible part and the flux density are then
    /// recomputed algebraically.
    ///
    /// # Errors
    ///
    /// Returns [`JaError::NonFiniteField`] for a NaN/infinite field and
    /// [`JaError::StateDiverged`] if the state stops being finite (possible
    /// only with the guards disabled).
    pub fn apply_field(&mut self, h: f64) -> Result<BhPoint, JaError> {
        advance_state(
            &self.params,
            &self.anhysteretic,
            &self.config,
            &mut self.state,
            &mut self.stats,
            h,
        )?;
        Ok(self.sample())
    }

    /// The sample corresponding to the current state without applying a new
    /// field.
    pub fn sample(&self) -> BhPoint {
        let m_sat = self.params.m_sat.value();
        BhPoint::new(
            FieldStrength::new(self.state.h),
            FluxDensity::new(MU0 * (self.state.h + self.state.m_total * m_sat)),
            Magnetisation::new(self.state.m_total * m_sat),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Formulation, SlopeIntegration};
    use crate::params::AnhystereticChoice;
    use proptest::prelude::*;

    fn paper_model() -> JilesAtherton {
        JilesAtherton::new(JaParameters::date2006()).expect("valid parameters")
    }

    /// Drives the model along a linear ramp in small steps.
    fn ramp(model: &mut JilesAtherton, from: f64, to: f64, step: f64) -> Vec<BhPoint> {
        let mut samples = Vec::new();
        let n = ((to - from).abs() / step).ceil() as usize;
        let dir = (to - from).signum();
        for i in 0..=n {
            let h = from + dir * step * i as f64;
            let h = if dir > 0.0 { h.min(to) } else { h.max(to) };
            samples.push(model.apply_field(h).expect("finite field"));
        }
        samples
    }

    #[test]
    fn construction_validates_inputs() {
        assert!(JilesAtherton::new(JaParameters::date2006()).is_ok());
        let mut bad = JaParameters::date2006();
        bad.k = -1.0;
        assert!(JilesAtherton::new(bad).is_err());
        let bad_config = JaConfig::default().with_dh_max(0.0);
        assert!(JilesAtherton::with_config(JaParameters::date2006(), bad_config).is_err());
    }

    #[test]
    fn rejects_non_finite_field() {
        let mut model = paper_model();
        assert!(model.apply_field(f64::NAN).is_err());
        assert!(model.apply_field(f64::INFINITY).is_err());
    }

    #[test]
    fn initial_magnetisation_curve_rises_and_saturates() {
        let mut model = paper_model();
        let samples = ramp(&mut model, 0.0, 10_000.0, 10.0);
        let b_end = samples.last().unwrap().b.as_tesla();
        assert!(b_end > 1.2, "B at 10 kA/m = {b_end} T");
        assert!(b_end < 2.3);
        // Magnetisation bounded by saturation.
        assert!(model.state().m_total <= 1.0 + 1e-6);
        // B must be monotonically non-decreasing on the initial curve.
        for w in samples.windows(2) {
            assert!(w[1].b.as_tesla() >= w[0].b.as_tesla() - 1e-12);
        }
        assert!(model.statistics().updates > 500);
    }

    #[test]
    fn major_loop_shows_hysteresis() {
        let mut model = paper_model();
        ramp(&mut model, 0.0, 10_000.0, 10.0);
        // Descend to zero field: remanence should be positive.
        ramp(&mut model, 10_000.0, 0.0, 10.0);
        let b_remanent = model.flux_density().as_tesla();
        assert!(b_remanent > 0.1, "B_r = {b_remanent} T");
        // Continue to negative saturation.
        let samples = ramp(&mut model, 0.0, -10_000.0, 10.0);
        let b_negative = samples.last().unwrap().b.as_tesla();
        assert!(b_negative < -1.2);
    }

    #[test]
    fn small_field_jitter_below_threshold_does_not_update() {
        let mut model = paper_model();
        model.apply_field(0.0).unwrap();
        for i in 0..100 {
            model.apply_field((i % 2) as f64 * 1.0).unwrap(); // 1 A/m << dh_max
        }
        assert_eq!(model.statistics().updates, 0);
        assert_eq!(model.statistics().samples, 101);
    }

    #[test]
    fn reset_restores_demagnetised_state() {
        let mut model = paper_model();
        ramp(&mut model, 0.0, 5_000.0, 10.0);
        assert!(model.magnetisation().value() > 0.0);
        model.reset();
        assert_eq!(model.state().m_total, 0.0);
        assert_eq!(model.statistics().samples, 0);
        assert_eq!(model.flux_density().as_tesla(), 0.0);
    }

    #[test]
    fn set_state_starts_from_remanence() {
        let mut model = paper_model();
        model.set_state(crate::state::JaState::premagnetised(0.6));
        let sample = model.apply_field(0.0).unwrap();
        assert!(sample.b.as_tesla() > 0.5);
    }

    #[test]
    fn guards_prevent_negative_slope_artefacts() {
        let mut model = paper_model();
        ramp(&mut model, 0.0, 10_000.0, 10.0);
        ramp(&mut model, 10_000.0, -10_000.0, 10.0);
        ramp(&mut model, -10_000.0, 10_000.0, 10.0);
        // Any clamped events are recorded but the produced curve never shows
        // a negative dB/dH sample (checked indirectly via monotonic branches
        // in the sweep tests; here check the statistics are consistent).
        let stats = model.statistics();
        assert!(stats.updates > 0);
        assert!(stats.slope_evaluations >= stats.updates);
    }

    #[test]
    fn classic_formulation_also_produces_hysteresis() {
        let config = JaConfig::default()
            .with_formulation(Formulation::Classic)
            .with_anhysteretic(AnhystereticChoice::Langevin);
        let mut model =
            JilesAtherton::with_config(JaParameters::jiles_atherton_1984(), config).expect("valid");
        ramp(&mut model, 0.0, 5_000.0, 5.0);
        ramp(&mut model, 5_000.0, 0.0, 5.0);
        assert!(model.flux_density().as_tesla() > 0.05);
    }

    #[test]
    fn higher_order_integration_changes_statistics_not_shape() {
        let run = |integration: SlopeIntegration| {
            let config = JaConfig::default().with_integration(integration);
            let mut model =
                JilesAtherton::with_config(JaParameters::date2006(), config).expect("valid");
            ramp(&mut model, 0.0, 10_000.0, 10.0);
            (model.flux_density().as_tesla(), model.statistics())
        };
        let (b_euler, s_euler) = run(SlopeIntegration::ForwardEuler);
        let (b_rk4, s_rk4) = run(SlopeIntegration::RungeKutta4);
        assert!(s_rk4.slope_evaluations > s_euler.slope_evaluations);
        assert!(
            (b_euler - b_rk4).abs() < 0.2,
            "euler {b_euler} vs rk4 {b_rk4}"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn prop_magnetisation_stays_bounded(
            peak in 1000.0_f64..40_000.0,
            step in 1.0_f64..100.0,
        ) {
            let mut model = paper_model();
            // One full cycle.
            ramp(&mut model, 0.0, peak, step);
            ramp(&mut model, peak, -peak, step);
            ramp(&mut model, -peak, peak, step);
            prop_assert!(model.state().m_total.abs() <= 1.0 + 1e-6);
            prop_assert!(model.state().is_finite());
        }

        #[test]
        fn prop_flux_density_sign_follows_saturating_field(peak in 8_000.0_f64..30_000.0) {
            let mut model = paper_model();
            ramp(&mut model, 0.0, peak, 10.0);
            prop_assert!(model.flux_density().as_tesla() > 0.5);
            ramp(&mut model, peak, -peak, 10.0);
            prop_assert!(model.flux_density().as_tesla() < -0.5);
        }
    }
}
