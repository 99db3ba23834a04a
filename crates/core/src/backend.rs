//! Backend-agnostic driving API: one trait in front of every hysteresis
//! implementation.
//!
//! The repository carries four parallel implementations of the paper's
//! technique and its baseline — the direct library model
//! ([`JilesAtherton`]), the conventional time-domain formulation
//! ([`TimeDomainBackend`]), and the SystemC-style and AMS-style HDL models
//! in the `hdl-models` crate.  [`HysteresisBackend`] is the seam that lets
//! equivalence tests, benches and the scenario engine drive any of them
//! through one polymorphic API: feed a field sample in, get a
//! [`BhPoint`] out, read the cost counters back as [`JaStatistics`].
//! [`HysteresisBackend::run_samples_into`] is the one loop that steps a
//! backend through a sequence of field samples; a timeless
//! [`FieldSchedule`](waveform::schedule::FieldSchedule) reaches it through
//! `to_samples()`.
//!
//! The trait is object-safe, so backends can be collected in
//! `Vec<Box<dyn HysteresisBackend>>` and run over the same stimulus grid.

use magnetics::anhysteretic::AnhystereticKind;
use magnetics::bh::{BhCurve, BhPoint};
use magnetics::constants::MU0;
use magnetics::material::JaParameters;
use magnetics::units::{FieldStrength, FluxDensity, Magnetisation};

use crate::config::JaConfig;
use crate::error::JaError;
use crate::model::{JaStatistics, JilesAtherton};
use crate::slope::{evaluate_total_slope, FieldDirection};

/// Cost counters of an event-driven backend's simulation kernel.
///
/// Where [`JaStatistics`] counts *model* work (integration steps, slope
/// evaluations), these counters expose the *substrate* work of a
/// discrete-event backend: how many delta cycles the kernel ran, how many
/// timed events it scheduled, and how many process activations it executed.
/// They are deterministic outcomes of the stimulus — not timings — but
/// reports still gate them behind the opt-in timings block because only
/// event-driven backends produce them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct KernelStatistics {
    /// Delta cycles executed.
    pub delta_cycles: u64,
    /// Timed events scheduled (the testbench stimulus).
    pub events_scheduled: u64,
    /// Method-process activations executed.
    pub process_activations: u64,
}

/// A hysteresis model that can be driven sample-by-sample with applied
/// field values.
///
/// All four implementation styles of the repository stand behind this
/// trait; the provided [`run_samples_into`](HysteresisBackend::run_samples_into)
/// gives every backend the same sweep loop.
pub trait HysteresisBackend {
    /// A short, stable, human-readable backend name (used in reports and
    /// error messages).
    fn label(&self) -> &'static str;

    /// Applies a new value of the external field (A/m) and returns the
    /// resulting sample.
    ///
    /// # Errors
    ///
    /// Returns [`JaError::NonFiniteField`] for a NaN/infinite field,
    /// [`JaError::StateDiverged`] if the state stops being finite, and
    /// [`JaError::Backend`] for substrate failures.
    fn apply_field(&mut self, h: f64) -> Result<BhPoint, JaError>;

    /// Cumulative cost counters since construction or the last
    /// [`reset`](HysteresisBackend::reset).
    fn statistics(&self) -> JaStatistics;

    /// Returns the backend to the demagnetised state and clears the
    /// statistics.
    ///
    /// # Errors
    ///
    /// Returns [`JaError::Backend`] if the substrate cannot be restored
    /// (event-kernel backends rewind their kernel in place — signals back
    /// to initial values, queues and counters cleared — keeping the process
    /// network and its allocations alive for the next scenario).
    fn reset(&mut self) -> Result<(), JaError>;

    /// Kernel cost counters since construction or the last
    /// [`reset`](HysteresisBackend::reset) — `Some` only for event-driven
    /// backends; equation-style backends have no kernel and return `None`
    /// (the default).
    fn kernel_statistics(&self) -> Option<KernelStatistics> {
        None
    }

    /// Drives the backend through an explicit sequence of field samples and
    /// collects the BH trace.
    ///
    /// # Errors
    ///
    /// Propagates the first [`apply_field`](HysteresisBackend::apply_field)
    /// error.
    fn run_samples(&mut self, samples: &[f64]) -> Result<BhCurve, JaError> {
        let mut curve = BhCurve::with_capacity(samples.len());
        self.run_samples_into(samples, &mut curve)?;
        Ok(curve)
    }

    /// Like [`run_samples`](HysteresisBackend::run_samples), but fills a
    /// caller-provided curve: the curve is cleared, its allocation is kept,
    /// and exactly one point per field sample is appended.  This is the one
    /// loop that steps a backend through field samples: every scalar
    /// scenario runs through it, and callers that run many sweeps and keep
    /// only derived metrics (benches, fitting loops) reuse one curve.
    ///
    /// # Errors
    ///
    /// Propagates the first [`apply_field`](HysteresisBackend::apply_field)
    /// error; the curve then holds the samples up to the failure.
    fn run_samples_into(&mut self, samples: &[f64], curve: &mut BhCurve) -> Result<(), JaError> {
        curve.clear();
        curve.reserve(samples.len());
        for &h in samples {
            curve.push(self.apply_field(h)?);
        }
        Ok(())
    }
}

impl HysteresisBackend for JilesAtherton {
    fn label(&self) -> &'static str {
        "direct-timeless"
    }

    fn apply_field(&mut self, h: f64) -> Result<BhPoint, JaError> {
        JilesAtherton::apply_field(self, h)
    }

    fn statistics(&self) -> JaStatistics {
        JilesAtherton::statistics(self)
    }

    fn reset(&mut self) -> Result<(), JaError> {
        JilesAtherton::reset(self);
        Ok(())
    }
}

/// The conventional time-domain formulation driven through the sample API —
/// the "previous work" baseline expressed as a backend.
///
/// Where the timeless backends integrate over the *field* and gate updates
/// on `ΔH_max`, this backend does what a solver-integrated model does on
/// every solver step: it advances the total magnetisation by
/// `ΔM = dM/dH · ΔH` at **every** sample, with the slope discontinuity at
/// field reversals left in place.  Driving it with the same schedule as a
/// timeless backend therefore reproduces the baseline's per-step behaviour
/// without an analogue solver in the loop (the solver's own failure modes —
/// Newton non-convergence, step-size collapse — are exercised separately by
/// `hdl-models::ams::SolverIntegratedBaseline`).
#[derive(Debug, Clone)]
pub struct TimeDomainBackend {
    params: JaParameters,
    anhysteretic: AnhystereticKind,
    clamp_negative_slope: bool,
    m_total: f64,
    h_last: f64,
    has_sample: bool,
    stats: JaStatistics,
}

impl TimeDomainBackend {
    /// Creates the backend from a material and configuration (the
    /// configuration contributes the anhysteretic law and the slope clamp;
    /// `ΔH_max` is deliberately ignored — this formulation updates on every
    /// sample).
    ///
    /// # Errors
    ///
    /// Returns [`JaError::Material`] or [`JaError::InvalidConfig`] for
    /// invalid inputs.
    pub fn new(params: JaParameters, config: JaConfig) -> Result<Self, JaError> {
        params.validate()?;
        config.validate()?;
        Ok(Self {
            params,
            anhysteretic: config.anhysteretic.build(&params),
            clamp_negative_slope: config.clamp_negative_slope,
            m_total: 0.0,
            h_last: 0.0,
            has_sample: false,
            stats: JaStatistics::default(),
        })
    }

    fn sample_at(&self, h: f64) -> BhPoint {
        let m_sat = self.params.m_sat.value();
        BhPoint::new(
            FieldStrength::new(h),
            FluxDensity::new(MU0 * (h + self.m_total * m_sat)),
            Magnetisation::new(self.m_total * m_sat),
        )
    }
}

impl HysteresisBackend for TimeDomainBackend {
    fn label(&self) -> &'static str {
        "time-domain-baseline"
    }

    fn apply_field(&mut self, h: f64) -> Result<BhPoint, JaError> {
        if !h.is_finite() {
            return Err(JaError::NonFiniteField { value: h });
        }
        self.stats.samples += 1;
        let dh = if self.has_sample {
            h - self.h_last
        } else {
            0.0
        };
        if let Some(direction) = FieldDirection::from_increment(dh) {
            let dm_dh = evaluate_total_slope(
                &self.params,
                &self.anhysteretic,
                self.h_last,
                self.m_total,
                direction,
                self.clamp_negative_slope,
            );
            self.stats.slope_evaluations += 1;
            self.stats.updates += 1;
            if dm_dh < 0.0 {
                self.stats.negative_slope_events += 1;
            }
            self.m_total += dm_dh * dh;
        }
        self.h_last = h;
        self.has_sample = true;
        if !self.m_total.is_finite() {
            return Err(JaError::StateDiverged { at_field: h });
        }
        Ok(self.sample_at(h))
    }

    fn statistics(&self) -> JaStatistics {
        self.stats
    }

    fn reset(&mut self) -> Result<(), JaError> {
        self.m_total = 0.0;
        self.h_last = 0.0;
        self.has_sample = false;
        self.stats = JaStatistics::default();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use magnetics::loop_analysis;
    use waveform::schedule::FieldSchedule;

    fn paper_model() -> JilesAtherton {
        JilesAtherton::new(JaParameters::date2006()).expect("valid")
    }

    fn paper_backends() -> Vec<Box<dyn HysteresisBackend>> {
        vec![
            Box::new(paper_model()),
            Box::new(
                TimeDomainBackend::new(JaParameters::date2006(), JaConfig::default())
                    .expect("valid"),
            ),
        ]
    }

    #[test]
    fn trait_objects_drive_both_core_backends() {
        let samples = FieldSchedule::major_loop(10_000.0, 10.0, 2)
            .expect("schedule")
            .to_samples();
        for backend in paper_backends().iter_mut() {
            let curve = backend.run_samples(&samples).expect("sweep");
            let metrics = loop_analysis::loop_metrics(&curve).expect("metrics");
            assert!(
                metrics.b_max.as_tesla() > 1.2 && metrics.b_max.as_tesla() < 2.5,
                "{}: B_max = {} T",
                backend.label(),
                metrics.b_max.as_tesla()
            );
            assert!(backend.statistics().updates > 0, "{}", backend.label());
        }
    }

    #[test]
    fn reset_restores_demagnetised_state_through_the_trait() {
        for backend in paper_backends().iter_mut() {
            backend.apply_field(5_000.0).expect("field");
            assert!(backend.statistics().samples > 0);
            backend.reset().expect("reset");
            assert_eq!(backend.statistics(), JaStatistics::default());
            let sample = backend.apply_field(0.0).expect("field");
            assert!(sample.b.as_tesla().abs() < 1e-9, "{}", backend.label());
        }
    }

    #[test]
    fn time_domain_backend_tracks_direct_model_on_fine_steps() {
        // On a fine schedule the conventional per-sample integration and the
        // timeless gated integration follow the same loop envelope; the two
        // formulations differ at the reversal handling, not in bulk shape.
        let samples = FieldSchedule::major_loop(10_000.0, 5.0, 2)
            .expect("schedule")
            .to_samples();
        let mut direct = paper_model();
        let mut baseline =
            TimeDomainBackend::new(JaParameters::date2006(), JaConfig::default()).expect("valid");
        let b_direct = direct
            .run_samples(&samples)
            .expect("sweep")
            .peak_flux_density()
            .expect("peak")
            .as_tesla();
        let b_baseline = baseline
            .run_samples(&samples)
            .expect("sweep")
            .peak_flux_density()
            .expect("peak")
            .as_tesla();
        assert!(
            (b_direct - b_baseline).abs() / b_direct < 0.1,
            "direct {b_direct} T vs time-domain {b_baseline} T"
        );
    }

    #[test]
    fn run_into_reuses_curve_and_matches_fresh_run() {
        let samples = FieldSchedule::major_loop(10_000.0, 50.0, 1)
            .expect("schedule")
            .to_samples();
        let mut model = paper_model();
        let fresh = model.run_samples(&samples).expect("sweep");

        HysteresisBackend::reset(&mut model).expect("reset");
        let mut reused = BhCurve::new();
        reused.push_raw(99.0, 99.0, 99.0); // stale content must be cleared
        model
            .run_samples_into(&samples, &mut reused)
            .expect("sweep");
        assert_eq!(fresh, reused);
    }

    #[test]
    fn time_domain_backend_rejects_non_finite_field() {
        let mut backend =
            TimeDomainBackend::new(JaParameters::date2006(), JaConfig::default()).expect("valid");
        assert!(backend.apply_field(f64::NAN).is_err());
    }

    #[test]
    fn major_loop_sweep_reproduces_figure_shape() {
        let mut model = paper_model();
        let samples = FieldSchedule::major_loop(10_000.0, 10.0, 2)
            .unwrap()
            .to_samples();
        let curve = model.run_samples(&samples).unwrap();
        let metrics = loop_analysis::loop_metrics(&curve).unwrap();
        // Fig. 1 axes: B spans roughly ±2 T over ±10 kA/m.
        assert!(metrics.b_max.as_tesla() > 1.5 && metrics.b_max.as_tesla() < 2.3);
        assert!((metrics.h_max.value() - 10_000.0).abs() < 1e-9);
        assert!(metrics.coercivity.value() > 1_000.0);
        assert!(metrics.remanence.as_tesla() > 0.3);
        assert!(metrics.loop_area > 0.0);
        assert_eq!(metrics.negative_slope_samples, 0);
        assert_eq!(curve.len(), samples.len());
        assert!(model.statistics().updates > 1000);
    }

    #[test]
    fn nested_minor_loops_stay_inside_major_loop() {
        let mut model = paper_model();
        let samples =
            FieldSchedule::nested_minor_loops(10_000.0, &[7_500.0, 5_000.0, 2_500.0], 10.0)
                .unwrap()
                .to_samples();
        let curve = model.run_samples(&samples).unwrap();
        let metrics = loop_analysis::loop_metrics(&curve).unwrap();
        assert!(metrics.b_max.as_tesla() < 2.3);
        assert_eq!(metrics.negative_slope_samples, 0);

        // The minor-loop tail must stay strictly inside the major loop's
        // flux-density extremes.
        let tail_start = curve.len() - 200;
        let tail_max = curve.points()[tail_start..]
            .iter()
            .map(|p| p.b.as_tesla().abs())
            .fold(0.0, f64::max);
        assert!(tail_max < metrics.b_max.as_tesla());
    }

    #[test]
    fn sweep_propagates_model_errors() {
        let mut model = paper_model();
        assert!(model.run_samples(&[0.0, f64::NAN]).is_err());
    }

    #[test]
    fn repeated_cycles_converge_to_a_closed_loop() {
        let mut model = paper_model();
        let samples = FieldSchedule::major_loop(10_000.0, 10.0, 3)
            .unwrap()
            .to_samples();
        let curve = model.run_samples(&samples).unwrap();
        // One full cycle corresponds to 4 * peak / step samples.
        let period = (4.0 * 10_000.0 / 10.0) as usize;
        let closure = loop_analysis::loop_closure_error(&curve, period).unwrap();
        let b_max = curve.peak_flux_density().unwrap().as_tesla();
        assert!(closure < 0.02 * b_max, "closure error {closure} T");
    }
}
