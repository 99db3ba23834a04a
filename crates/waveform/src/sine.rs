//! Sinusoidal waveforms.

use crate::error::WaveformError;
use crate::generator::Waveform;

/// `x(t) = offset + A·sin(2π·f·t + φ)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sine {
    amplitude: f64,
    frequency: f64,
    phase_rad: f64,
    offset: f64,
}

impl Sine {
    /// Creates a sine waveform from amplitude and frequency (Hz).
    ///
    /// # Errors
    ///
    /// Returns [`WaveformError::InvalidParameter`] when the amplitude is not
    /// finite and non-negative or the frequency is not finite and positive.
    pub fn new(amplitude: f64, frequency: f64) -> Result<Self, WaveformError> {
        if !amplitude.is_finite() || amplitude < 0.0 {
            return Err(WaveformError::InvalidParameter {
                name: "amplitude",
                value: amplitude,
                requirement: "finite and >= 0",
            });
        }
        if !frequency.is_finite() || frequency <= 0.0 {
            return Err(WaveformError::InvalidParameter {
                name: "frequency",
                value: frequency,
                requirement: "finite and > 0",
            });
        }
        Ok(Self {
            amplitude,
            frequency,
            phase_rad: 0.0,
            offset: 0.0,
        })
    }

    /// Adds a phase in radians.
    pub fn with_phase(mut self, phase_rad: f64) -> Self {
        self.phase_rad = phase_rad;
        self
    }

    /// Adds a DC offset.
    pub fn with_offset(mut self, offset: f64) -> Self {
        self.offset = offset;
        self
    }

    /// Peak amplitude.
    pub fn amplitude(&self) -> f64 {
        self.amplitude
    }

    /// Frequency in Hz.
    pub fn frequency(&self) -> f64 {
        self.frequency
    }
}

impl Waveform for Sine {
    fn value(&self, t: f64) -> f64 {
        self.offset
            + self.amplitude
                * (2.0 * std::f64::consts::PI * self.frequency * t + self.phase_rad).sin()
    }

    fn period(&self) -> Option<f64> {
        Some(1.0 / self.frequency)
    }

    fn derivative(&self, t: f64) -> f64 {
        let omega = 2.0 * std::f64::consts::PI * self.frequency;
        self.amplitude * omega * (omega * t + self.phase_rad).cos()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sine_rejects_bad_parameters() {
        assert!(Sine::new(-1.0, 50.0).is_err());
        assert!(Sine::new(1.0, 0.0).is_err());
        assert!(Sine::new(1.0, 50.0).is_ok());
    }

    #[test]
    fn sine_values_and_period() {
        let w = Sine::new(2.0, 50.0).unwrap();
        assert!((w.value(0.0)).abs() < 1e-12);
        assert!((w.value(0.005) - 2.0).abs() < 1e-9); // quarter period
        assert_eq!(w.period(), Some(0.02));
    }

    #[test]
    fn sine_phase_and_offset() {
        let w = Sine::new(1.0, 1.0)
            .unwrap()
            .with_phase(std::f64::consts::FRAC_PI_2)
            .with_offset(10.0);
        assert!((w.value(0.0) - 11.0).abs() < 1e-12);
    }

    #[test]
    fn sine_derivative_analytic() {
        let w = Sine::new(3.0, 10.0).unwrap();
        let omega = 2.0 * std::f64::consts::PI * 10.0;
        assert!((w.derivative(0.0) - 3.0 * omega).abs() < 1e-9);
    }
}
