//! Adapter that lets the timeless JA model act as the core of a wound
//! inductor inside the MNA circuit simulator — the "JA model in SPICE"
//! setting the paper's introduction refers to.

use analog_solver::circuit::MagneticCoreModel;
use ja_hysteresis::config::JaConfig;
use ja_hysteresis::error::JaError;
use ja_hysteresis::model::JilesAtherton;
use magnetics::material::JaParameters;

/// Wraps a [`JilesAtherton`] model behind the
/// [`MagneticCoreModel`] interface of the circuit simulator.
///
/// The circuit's Newton iteration needs *trial* evaluations that do not
/// disturb the hysteresis history; the adapter provides them by cloning the
/// lightweight model state, applying the trial field to the clone and
/// reading back `B` and a finite-difference `dB/dH`.  Only
/// [`commit`](MagneticCoreModel::commit) advances the real history.
#[derive(Debug, Clone)]
pub struct JaCoreAdapter {
    model: JilesAtherton,
    derivative_step: f64,
}

impl JaCoreAdapter {
    /// Creates an adapter around a freshly demagnetised model.
    ///
    /// # Errors
    ///
    /// Returns [`JaError`] for invalid parameters or configuration.
    pub fn new(params: JaParameters, config: JaConfig) -> Result<Self, JaError> {
        Ok(Self {
            model: JilesAtherton::with_config(params, config)?,
            derivative_step: 1.0,
        })
    }

    /// Creates an adapter with the paper's parameters and configuration.
    ///
    /// # Errors
    ///
    /// Never fails in practice (the paper's parameters are valid); the
    /// `Result` mirrors [`JaCoreAdapter::new`].
    pub fn date2006() -> Result<Self, JaError> {
        Self::new(JaParameters::date2006(), JaConfig::default())
    }

    /// Access to the wrapped model (e.g. for statistics).
    pub fn model(&self) -> &JilesAtherton {
        &self.model
    }
}

impl MagneticCoreModel for JaCoreAdapter {
    fn evaluate(&self, h_new: f64) -> (f64, f64) {
        let mut trial = self.model.clone();
        let b = trial
            .apply_field(h_new)
            .map(|s| s.b.as_tesla())
            .unwrap_or(self.model.flux_density().as_tesla());
        let mut trial_up = self.model.clone();
        let b_up = trial_up
            .apply_field(h_new + self.derivative_step)
            .map(|s| s.b.as_tesla())
            .unwrap_or(b);
        let db_dh = ((b_up - b) / self.derivative_step).max(magnetics::constants::MU0);
        (b, db_dh)
    }

    fn commit(&mut self, h_new: f64) {
        // The field handed over by the circuit is always finite (it came out
        // of a successful linear solve); if it were not, keeping the previous
        // state is the safest fallback.
        let _ = self.model.apply_field(h_new);
    }

    fn flux_density(&self) -> f64 {
        self.model.flux_density().as_tesla()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use analog_solver::circuit::elements::{NonlinearInductor, Resistor, VoltageSource};
    use analog_solver::circuit::{Circuit, Node, TransientAnalysis};
    use waveform::sine::Sine;

    #[test]
    fn evaluate_is_side_effect_free() {
        let adapter = JaCoreAdapter::date2006().unwrap();
        let (b1, db1) = adapter.evaluate(5_000.0);
        let (b2, db2) = adapter.evaluate(5_000.0);
        assert_eq!(b1, b2);
        assert_eq!(db1, db2);
        assert!(b1 > 0.0);
        assert!(db1 > 0.0);
        assert_eq!(adapter.model().state().h, 0.0);
    }

    #[test]
    fn commit_advances_history() {
        let mut adapter = JaCoreAdapter::date2006().unwrap();
        adapter.commit(5_000.0);
        assert_eq!(adapter.model().state().h, 5_000.0);
        assert!(adapter.flux_density() > 0.0);
        assert!(adapter.model().statistics().samples > 0);
    }

    #[test]
    fn hysteretic_inductor_in_a_driven_circuit() {
        // A 50 Hz sine source driving a wound hysteretic core through a
        // series resistor: the magnetising current must saturate (grow
        // faster than linearly once the core saturates).
        let mut circuit = Circuit::new();
        let vin = circuit.node();
        let vl = circuit.node();
        circuit
            .add(
                "V1",
                VoltageSource::new(vin, Node::GROUND, Sine::new(30.0, 50.0).unwrap()),
            )
            .unwrap();
        circuit
            .add("R1", Resistor::new(vin, vl, 1.0).unwrap())
            .unwrap();
        let core_idx = circuit
            .add(
                "CORE",
                NonlinearInductor::new(
                    vl,
                    Node::GROUND,
                    200.0,
                    1.0e-4,
                    0.1,
                    JaCoreAdapter::date2006().unwrap(),
                )
                .unwrap(),
            )
            .unwrap();

        let analysis = TransientAnalysis::new(5e-5, 0.04).unwrap();
        let result = analysis.run(&mut circuit).unwrap();
        let current = result.branch_current(core_idx, 0).unwrap();
        let peak_current = current.iter().fold(0.0_f64, |a, &b| a.max(b.abs()));
        assert!(
            peak_current > 1.0,
            "peak magnetising current {peak_current} A"
        );
        assert!(result.stats().newton_iterations > 0);
        // The node voltage across the core must stay bounded by the source.
        let v = result.voltage(vl).unwrap();
        assert!(v.iter().all(|x| x.abs() <= 31.0));
    }
}
