//! Faithful port of the paper's SystemC model onto the discrete-event
//! kernel.
//!
//! The original module has three method processes communicating through
//! signals:
//!
//! * `JA::core()` — triggered by changes of the external field `H` (and here
//!   also by the completion of an integration step): computes the effective
//!   field, the anhysteretic (`Lang_mod`), the reversible and total
//!   magnetisation and the flux density, and raises `hchanged` when the
//!   field has moved by more than `dhmax`;
//! * `JA::monitorH()` — triggered by `hchanged`: latches `deltah`, updates
//!   `lasth` and raises `trig`;
//! * `JA::Integral()` — triggered by `trig`: performs the timeless forward
//!   Euler step of the irreversible magnetisation, with the negative-slope
//!   clamp and the opposing-update rejection.
//!
//! Module-internal variables (`mirr`, `mtotal`, `man`, `lasth`, `deltah`)
//! are shared between the processes through an `Rc` of `Cell` fields,
//! mirroring SystemC member variables.  `Cell` rather than `RefCell`
//! because the accesses are plain loads and stores: the process bodies run
//! on the order of ten times per field sample (the magnetisation feedback
//! fixpoint), so a per-activation borrow-flag check is measurable.

use std::cell::Cell;
use std::rc::Rc;

use hdl_kernel::kernel::Kernel;
use hdl_kernel::signal::SignalId;
use hdl_kernel::value::Value;
use hdl_kernel::{KernelError, SimTime};
use ja_hysteresis::error::JaError;
use magnetics::bh::{BhCurve, BhPoint};
use magnetics::constants::MU0;
use magnetics::material::JaParameters;
use magnetics::units::{FieldStrength, FluxDensity, Magnetisation};

/// Internal module variables shared by the three processes — the SystemC
/// member variables of the paper's `JA` module.  `params` and `dhmax` are
/// construction-time constants; everything else is mutable simulation
/// state behind `Cell`s.
#[derive(Debug, Clone)]
struct CoreVars {
    params: JaParameters,
    dhmax: f64,
    man: Cell<f64>,
    mirr: Cell<f64>,
    mtotal: Cell<f64>,
    lasth: Cell<f64>,
    deltah: Cell<f64>,
    // Cost counters of the Integral process, mirroring the library model's
    // `JaStatistics` so the module can stand behind `HysteresisBackend`.
    integral_steps: Cell<u64>,
    negative_slope_events: Cell<u64>,
    rejected_updates: Cell<u64>,
}

impl CoreVars {
    fn new(params: JaParameters, dhmax: f64) -> Self {
        Self {
            params,
            dhmax,
            man: Cell::new(0.0),
            mirr: Cell::new(0.0),
            mtotal: Cell::new(0.0),
            lasth: Cell::new(0.0),
            deltah: Cell::new(0.0),
            integral_steps: Cell::new(0),
            negative_slope_events: Cell::new(0),
            rejected_updates: Cell::new(0),
        }
    }

    /// Rewinds the mutable state to its construction-time values, keeping
    /// the material parameters.
    fn clear(&self) {
        self.man.set(0.0);
        self.mirr.set(0.0);
        self.mtotal.set(0.0);
        self.lasth.set(0.0);
        self.deltah.set(0.0);
        self.integral_steps.set(0);
        self.negative_slope_events.set(0);
        self.rejected_updates.set(0);
    }

    /// The paper's `Lang_mod`: the modified Langevin `(2/π)·atan(x)`.
    fn lang_mod(x: f64) -> f64 {
        std::f64::consts::FRAC_2_PI * x.atan()
    }
}

/// The SystemC-style Jiles–Atherton core model.
pub struct SystemCJaCore {
    kernel: Kernel,
    vars: Rc<CoreVars>,
    h: SignalId,
    m_sig: SignalId,
    b_sig: SignalId,
    samples: u64,
}

impl SystemCJaCore {
    /// Builds the module with the given material parameters and `dhmax`
    /// threshold (the paper's update threshold, in A/m).
    ///
    /// # Errors
    ///
    /// Returns [`KernelError`] if process registration fails (cannot happen
    /// with the signals created here) and panics never.
    pub fn new(params: JaParameters, dhmax: f64) -> Result<Self, KernelError> {
        let mut kernel = Kernel::new();
        let vars = Rc::new(CoreVars::new(params, dhmax));

        // Signals of the original module.
        let h = kernel.add_signal("H", Value::Real(0.0));
        let hchanged = kernel.add_signal("hchanged", Value::Bit(false));
        let trig = kernel.add_signal("trig", Value::Bit(false));
        let idone = kernel.add_signal("integral_done", Value::Bit(false));
        let m_sig = kernel.add_signal("Msig", Value::Real(0.0));
        let b_sig = kernel.add_signal("Bsig", Value::Real(0.0));

        // void JA::core()
        //
        // Sensitive to the external field, to the completion of an
        // integration step and to its own magnetisation output: the latter
        // makes the reversible part settle over delta cycles (the effective
        // field depends on the total magnetisation the process itself
        // computes), exactly as an `sc_signal` feedback loop would in the
        // original SystemC module.
        let core_vars = Rc::clone(&vars);
        kernel.add_process("core", &[h, idone, m_sig], move |ctx| {
            let v = &*core_vars;
            let h_now = ctx.read_real(h)?;
            if (h_now - v.lasth.get()).abs() > v.dhmax {
                ctx.write_bit(hchanged, true)?;
            }
            let ms = v.params.m_sat.value();
            let he = h_now + v.params.alpha * ms * v.mtotal.get(); // effective field
            let man = CoreVars::lang_mod(he / v.params.a); // anhysteretic
            v.man.set(man);
            let mrev = v.params.c * man / (1.0 + v.params.c);
            let mtotal = mrev + v.mirr.get(); // total magnetisation
            v.mtotal.set(mtotal);
            let b = MU0 * (ms * mtotal + h_now); // flux density
            ctx.write_real(m_sig, mtotal)?;
            ctx.write_real(b_sig, b)?;
            Ok(())
        })?;

        // void JA::monitorH()
        let monitor_vars = Rc::clone(&vars);
        kernel.add_process("monitorH", &[hchanged], move |ctx| {
            if !ctx.read_bit(hchanged)? {
                return Ok(());
            }
            let v = &*monitor_vars;
            let h_now = ctx.read_real(h)?;
            let dh = h_now - v.lasth.get();
            if dh.abs() > v.dhmax {
                v.deltah.set(dh);
                v.lasth.set(h_now);
                ctx.write_bit(trig, true)?;
                ctx.write_bit(hchanged, false)?;
            }
            Ok(())
        })?;

        // void JA::Integral()
        let integral_vars = Rc::clone(&vars);
        kernel.add_process("Integral", &[trig], move |ctx| {
            if !ctx.read_bit(trig)? {
                return Ok(());
            }
            let v = &*integral_vars;
            let ms = v.params.m_sat.value();
            // Get the field direction.
            let dk = if v.deltah.get() > 0.0 {
                v.params.k
            } else {
                -v.params.k
            };
            // Forward Euler integration method.
            let dh = v.deltah.get();
            let deltam = v.man.get() - v.mtotal.get();
            let dmdh1 = deltam / ((1.0 + v.params.c) * (dk - v.params.alpha * ms * deltam));
            let dmdh = if dmdh1 > 0.0 { dmdh1 } else { 0.0 }; // positive slopes only
            let mut dm = dh * dmdh;
            if dm * dh < 0.0 {
                dm = 0.0;
                v.rejected_updates.set(v.rejected_updates.get() + 1);
            }
            v.integral_steps.set(v.integral_steps.get() + 1);
            if dmdh1 < 0.0 {
                v.negative_slope_events
                    .set(v.negative_slope_events.get() + 1);
            }
            v.mirr.set(v.mirr.get() + dm);
            ctx.write_bit(trig, false)?;
            // Let core() re-evaluate the magnetisation with the new mirr.
            let done = ctx.read_bit(idone)?;
            ctx.write_bit(idone, !done)?;
            Ok(())
        })?;

        Ok(Self {
            kernel,
            vars,
            h,
            m_sig,
            b_sig,
            samples: 0,
        })
    }

    /// Builds the module with the paper's parameters and a 10 A/m `dhmax`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`SystemCJaCore::new`].
    pub fn date2006() -> Result<Self, KernelError> {
        Self::new(JaParameters::date2006(), 10.0)
    }

    /// Applies a new field sample (DC-sweep style: the kernel settles all
    /// delta cycles before returning) and returns `(B, M_normalised)`.
    ///
    /// # Errors
    ///
    /// Propagates kernel errors (delta-cycle limit, process failure).
    pub fn apply_field(&mut self, h: f64) -> Result<(f64, f64), KernelError> {
        self.kernel.write_initial(self.h, Value::Real(h))?;
        self.kernel.settle()?;
        self.samples += 1;
        Ok((
            self.kernel.read_real(self.b_sig)?,
            self.kernel.read_real(self.m_sig)?,
        ))
    }

    /// Runs a timed testbench: the field samples are scheduled as timed
    /// writes `dt` apart and the kernel advances through them, tracing the
    /// BH point and the simulation time after every event.  Demonstrates
    /// that the same module also works under a conventional timed
    /// simulation.
    ///
    /// # Errors
    ///
    /// Propagates kernel errors.
    pub fn run_timed(
        &mut self,
        samples: &[f64],
        dt_seconds: f64,
    ) -> Result<(BhCurve, Vec<SimTime>), KernelError> {
        let mut times = Vec::with_capacity(samples.len());
        let m_sat = self.vars.params.m_sat.value();
        let mut curve = BhCurve::with_capacity(samples.len());
        for (i, &h) in samples.iter().enumerate() {
            let at = SimTime::from_seconds((i + 1) as f64 * dt_seconds);
            self.kernel.schedule_write(at, self.h, Value::Real(h));
        }
        for (i, &h) in samples.iter().enumerate() {
            let until = SimTime::from_seconds((i + 1) as f64 * dt_seconds);
            self.kernel.run_until(until)?;
            times.push(self.kernel.now());
            let b = self.kernel.read_real(self.b_sig)?;
            let m = self.kernel.read_real(self.m_sig)?;
            curve.push_raw(h, b, m * m_sat);
        }
        Ok((curve, times))
    }

    /// Number of process activations executed so far (event-driven cost
    /// metric).
    pub fn activations(&self) -> u64 {
        self.kernel.activations()
    }

    /// Number of delta cycles executed so far.
    pub fn delta_cycles(&self) -> u64 {
        self.kernel.delta_cycles_run()
    }

    /// Number of timed events scheduled so far (the testbench stimulus;
    /// zero for pure DC sweeps).
    pub fn events_scheduled(&self) -> u64 {
        self.kernel.events_scheduled()
    }

    /// The material parameters the module was built with.
    pub fn params(&self) -> JaParameters {
        self.vars.params
    }

    /// The update threshold `dhmax` the module was built with (A/m).
    pub fn dhmax(&self) -> f64 {
        self.vars.dhmax
    }
}

impl ja_hysteresis::backend::HysteresisBackend for SystemCJaCore {
    fn label(&self) -> &'static str {
        "systemc-event-kernel"
    }

    fn apply_field(&mut self, h: f64) -> Result<BhPoint, JaError> {
        if !h.is_finite() {
            return Err(JaError::NonFiniteField { value: h });
        }
        let (b, m_norm) = SystemCJaCore::apply_field(self, h).map_err(|err| JaError::Backend {
            backend: "systemc-event-kernel",
            reason: err.to_string(),
        })?;
        let m = m_norm * self.vars.params.m_sat.value();
        if !(b.is_finite() && m.is_finite()) {
            return Err(JaError::StateDiverged { at_field: h });
        }
        Ok(BhPoint::new(
            FieldStrength::new(h),
            FluxDensity::new(b),
            Magnetisation::new(m),
        ))
    }

    fn statistics(&self) -> ja_hysteresis::model::JaStatistics {
        let v = &*self.vars;
        ja_hysteresis::model::JaStatistics {
            samples: self.samples,
            updates: v.integral_steps.get(),
            // The paper's Integral process is forward Euler: exactly one
            // slope evaluation per integration step.
            slope_evaluations: v.integral_steps.get(),
            negative_slope_events: v.negative_slope_events.get(),
            // In the paper's listing the slope clamp precedes the sign
            // check, so `dm·dh < 0` is unreachable and this stays 0 — the
            // module genuinely never rejects an update, unlike the library
            // model whose guards are independently switchable.
            rejected_updates: v.rejected_updates.get(),
        }
    }

    fn reset(&mut self) -> Result<(), JaError> {
        // Rewind the kernel in place instead of rebuilding the module:
        // signals return to their initial values, the queue and counters
        // clear, and the next settle re-initialises every process exactly
        // as on a fresh kernel — so the process network (three boxed
        // closures, six signals, the shared `Rc<CoreVars>`) is
        // constructed once and reused across scenarios, the way
        // `RunScratch` already reuses the equation-style backends.
        self.kernel.reset();
        self.vars.clear();
        self.samples = 0;
        Ok(())
    }

    fn kernel_statistics(&self) -> Option<ja_hysteresis::backend::KernelStatistics> {
        Some(ja_hysteresis::backend::KernelStatistics {
            delta_cycles: self.kernel.delta_cycles_run(),
            events_scheduled: self.kernel.events_scheduled(),
            process_activations: self.kernel.activations(),
        })
    }
}

impl std::fmt::Debug for SystemCJaCore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SystemCJaCore")
            .field("kernel", &self.kernel)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ja_hysteresis::backend::HysteresisBackend;
    use magnetics::loop_analysis;
    use waveform::schedule::FieldSchedule;

    #[test]
    fn initial_state_is_demagnetised() {
        let mut core = SystemCJaCore::date2006().unwrap();
        let (b, m) = core.apply_field(0.0).unwrap();
        assert!(b.abs() < 1e-12);
        assert!(m.abs() < 1e-12);
    }

    #[test]
    fn saturates_under_large_field() {
        let mut core = SystemCJaCore::date2006().unwrap();
        let mut b_last = 0.0;
        let mut h = 0.0;
        while h <= 10_000.0 {
            let (b, _) = core.apply_field(h).unwrap();
            assert!(
                b >= b_last - 1e-12,
                "B must not decrease on the initial curve"
            );
            b_last = b;
            h += 10.0;
        }
        assert!(b_last > 1.2 && b_last < 2.3, "B(10 kA/m) = {b_last}");
        assert!(core.activations() > 1000);
        assert!(core.delta_cycles() > 1000);
    }

    #[test]
    fn major_loop_has_hysteresis() {
        let mut core = SystemCJaCore::date2006().unwrap();
        let samples = FieldSchedule::major_loop(10_000.0, 10.0, 2)
            .unwrap()
            .to_samples();
        let curve = core.run_samples(&samples).unwrap();
        let metrics = loop_analysis::loop_metrics(&curve).unwrap();
        assert!(metrics.b_max.as_tesla() > 1.5);
        assert!(metrics.coercivity.value() > 1_000.0);
        assert!(metrics.remanence.as_tesla() > 0.3);
        assert_eq!(metrics.negative_slope_samples, 0);
    }

    #[test]
    fn small_changes_below_dhmax_do_not_integrate() {
        let mut core = SystemCJaCore::new(JaParameters::date2006(), 100.0).unwrap();
        core.apply_field(0.0).unwrap();
        let activations_before = core.activations();
        // 50 A/m < dhmax = 100 A/m: core runs but no integration is
        // triggered, so the flux only reflects the reversible response.
        let (b, _) = core.apply_field(50.0).unwrap();
        assert!(b > 0.0);
        assert!(b < 0.01);
        assert!(core.activations() > activations_before);
    }

    #[test]
    fn timed_testbench_matches_dc_sweep() {
        let samples = FieldSchedule::major_loop(10_000.0, 50.0, 1)
            .unwrap()
            .to_samples();

        let mut dc = SystemCJaCore::date2006().unwrap();
        let dc_curve = dc.run_samples(&samples).unwrap();

        let mut timed = SystemCJaCore::date2006().unwrap();
        let (timed_curve, times) = timed.run_timed(&samples, 1e-6).unwrap();

        assert_eq!(dc_curve.len(), timed_curve.len());
        let max_diff = dc_curve
            .points()
            .iter()
            .zip(timed_curve.points())
            .map(|(a, b)| (a.b.as_tesla() - b.b.as_tesla()).abs())
            .fold(0.0, f64::max);
        assert!(max_diff < 1e-9, "timed vs DC sweep differ by {max_diff}");
        assert_eq!(times.len(), samples.len());
    }

    #[test]
    fn reset_reuses_the_kernel_bit_identically() {
        let samples =
            FieldSchedule::nested_minor_loops(10_000.0, &[7_500.0, 5_000.0, 2_500.0], 50.0)
                .unwrap()
                .to_samples();

        let mut fresh = SystemCJaCore::date2006().unwrap();
        let fresh_curve = fresh.run_samples(&samples).unwrap();

        // Dirty a second module with an unrelated sweep, then reset: the
        // reused kernel must replay the fig1 stimulus bit-identically to
        // the fresh one, with identical kernel counters.
        let mut reused = SystemCJaCore::date2006().unwrap();
        reused
            .run_samples(
                &FieldSchedule::major_loop(8_000.0, 100.0, 1)
                    .unwrap()
                    .to_samples(),
            )
            .unwrap();
        HysteresisBackend::reset(&mut reused).unwrap();
        assert_eq!(reused.delta_cycles(), 0);
        assert_eq!(reused.activations(), 0);
        assert_eq!(reused.events_scheduled(), 0);

        let reused_curve = reused.run_samples(&samples).unwrap();
        assert_eq!(fresh_curve, reused_curve);
        assert_eq!(fresh.delta_cycles(), reused.delta_cycles());
        assert_eq!(fresh.activations(), reused.activations());
        assert_eq!(
            fresh.kernel_statistics(),
            reused.kernel_statistics(),
            "kernel counters must match a fresh module after reset"
        );
    }

    #[test]
    fn debug_output() {
        let core = SystemCJaCore::date2006().unwrap();
        assert!(format!("{core:?}").contains("SystemCJaCore"));
        assert_eq!(core.params().k, 4000.0);
    }
}
