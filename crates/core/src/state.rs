//! Magnetisation state variables.
//!
//! Internally the model works with *normalised* magnetisations
//! (`m = M / M_sat`), exactly like the paper's SystemC listing where `man`,
//! `mrev`, `mirr` and `mtotal` are all normalised.  The absolute values are
//! recovered through the parameter set when needed.

use magnetics::constants::MU0;
use magnetics::material::JaParameters;
use magnetics::units::{FluxDensity, Magnetisation};

/// The state of one Jiles–Atherton core.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct JaState {
    /// Normalised irreversible magnetisation `M_irr / M_sat`.
    pub m_irr: f64,
    /// Normalised reversible magnetisation `M_rev / M_sat`.
    pub m_rev: f64,
    /// Normalised total magnetisation `M / M_sat`.
    pub m_total: f64,
    /// Normalised anhysteretic magnetisation at the last evaluation.
    pub m_an: f64,
    /// Applied field at the last evaluation (A/m).
    pub h: f64,
    /// Applied field at the last *slope update* (the paper's `lasth`, A/m).
    pub h_last_update: f64,
    /// Number of slope-integration updates performed so far.
    pub updates: u64,
}

impl JaState {
    /// A demagnetised core at zero field.
    pub fn demagnetised() -> Self {
        Self::default()
    }

    /// A core pre-magnetised to a normalised total magnetisation
    /// (`M/M_sat`); the irreversible part absorbs all of it.
    pub fn premagnetised(m_normalised: f64) -> Self {
        Self {
            m_irr: m_normalised,
            m_rev: 0.0,
            m_total: m_normalised,
            ..Self::default()
        }
    }

    /// Absolute total magnetisation.
    pub fn magnetisation(&self, params: &JaParameters) -> Magnetisation {
        Magnetisation::new(self.m_total * params.m_sat.value())
    }

    /// Flux density `B = µ0·(H + M)` at the current state.
    pub fn flux_density(&self, params: &JaParameters) -> FluxDensity {
        FluxDensity::new(MU0 * (self.h + self.m_total * params.m_sat.value()))
    }

    /// `true` when every state variable is finite.  Evaluates every
    /// check without branching, so a loop over many states vectorises.
    pub fn is_finite(&self) -> bool {
        self.m_irr.is_finite()
            & self.m_rev.is_finite()
            & self.m_total.is_finite()
            & self.m_an.is_finite()
            & self.h.is_finite()
            & self.h_last_update.is_finite()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn demagnetised_state_is_zero() {
        let s = JaState::demagnetised();
        assert_eq!(s.m_total, 0.0);
        assert_eq!(s.m_irr, 0.0);
        assert_eq!(s.updates, 0);
        assert!(s.is_finite());
    }

    #[test]
    fn premagnetised_state_carries_magnetisation() {
        let s = JaState::premagnetised(0.5);
        let p = JaParameters::date2006();
        assert_eq!(s.m_total, 0.5);
        assert!((s.magnetisation(&p).value() - 0.8e6).abs() < 1e-6);
    }

    #[test]
    fn flux_density_combines_field_and_magnetisation() {
        let p = JaParameters::date2006();
        let mut s = JaState::premagnetised(1.0);
        s.h = 10_000.0;
        let b = s.flux_density(&p);
        let expected = MU0 * (10_000.0 + 1.6e6);
        assert!((b.as_tesla() - expected).abs() < 1e-12);
    }

    #[test]
    fn non_finite_state_detected() {
        let mut s = JaState::demagnetised();
        s.m_irr = f64::NAN;
        assert!(!s.is_finite());
    }
}
