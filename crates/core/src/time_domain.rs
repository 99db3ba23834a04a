//! The conventional time-domain formulation — the baseline the paper argues
//! against.
//!
//! Existing HDL implementations convert the magnetisation slope into a time
//! derivative, `dM/dt = dM/dH · dH/dt`, and let the simulator's analogue
//! solver integrate it.  [`MagnetisationOde`] exposes exactly that
//! right-hand side for a given excitation waveform, so it can be handed to
//! any time integrator — the `analog-solver` engines that the `hdl-models`
//! crate's solver-integrated baseline runs.  The slope discontinuity at
//! every field reversal is left in place on purpose: it is the very
//! feature that makes this formulation fragile.

use magnetics::anhysteretic::AnhystereticKind;
use magnetics::material::JaParameters;
use waveform::Waveform;

use crate::config::JaConfig;
use crate::error::JaError;
use crate::slope::{evaluate_total_slope, FieldDirection};

/// The magnetisation ODE `dm/dt = dM/dH(H(t), m) · dH/dt(t)` in normalised
/// magnetisation.
pub struct MagnetisationOde<'a, W> {
    params: JaParameters,
    anhysteretic: AnhystereticKind,
    clamp_negative_slope: bool,
    waveform: &'a W,
}

impl<'a, W: Waveform> MagnetisationOde<'a, W> {
    /// Creates the ODE for a parameter set and an excitation waveform,
    /// using the configuration's anhysteretic choice and slope guard.
    ///
    /// # Errors
    ///
    /// Returns [`JaError::Material`] for invalid parameters or
    /// [`JaError::InvalidConfig`] for an invalid configuration.
    pub fn new(params: JaParameters, config: &JaConfig, waveform: &'a W) -> Result<Self, JaError> {
        params.validate()?;
        config.validate()?;
        Ok(Self {
            params,
            anhysteretic: config.anhysteretic.build(&params),
            clamp_negative_slope: config.clamp_negative_slope,
            waveform,
        })
    }

    /// The time derivative of the normalised magnetisation at time `t` for
    /// the normalised magnetisation `m`.
    pub fn dm_dt(&self, t: f64, m: f64) -> f64 {
        let h = self.waveform.value(t);
        let dh_dt = self.waveform.derivative(t);
        let Some(direction) = FieldDirection::from_increment(dh_dt) else {
            return 0.0;
        };
        let dm_dh = evaluate_total_slope(
            &self.params,
            &self.anhysteretic,
            h,
            m,
            direction,
            self.clamp_negative_slope,
        );
        dm_dh * dh_dt
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use waveform::triangular::Triangular;

    fn paper_setup() -> (JaParameters, JaConfig, Triangular) {
        (
            JaParameters::date2006(),
            JaConfig::default(),
            Triangular::new(10_000.0, 1.0).expect("valid waveform"),
        )
    }

    #[test]
    fn construction_validates() {
        let (p, c, w) = paper_setup();
        assert!(MagnetisationOde::new(p, &c, &w).is_ok());
        let bad = c.with_dh_max(-1.0);
        assert!(MagnetisationOde::new(p, &bad, &w).is_err());
    }

    #[test]
    fn dm_dt_positive_on_rising_field() {
        let (p, c, w) = paper_setup();
        let ode = MagnetisationOde::new(p, &c, &w).unwrap();
        // Early in the cycle the triangular field rises.
        assert!(ode.dm_dt(0.05, 0.0) > 0.0);
    }
}
