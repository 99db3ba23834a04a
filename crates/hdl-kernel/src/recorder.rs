//! Signal recording for post-simulation analysis.

use crate::error::KernelError;
use crate::kernel::Kernel;
use crate::signal::SignalId;
use crate::time::SimTime;
use crate::value::Value;

/// Records the values of a chosen set of signals every time
/// [`Recorder::sample`] is called, along with the simulation time.
///
/// This plays the role of SystemC's `sc_trace`/VCD output: the testbench
/// samples after each stimulus step and the recorded series become the BH
/// curves compared in the experiments.
///
/// Storage is one flat column per channel (not one row `Vec` per sample),
/// so a sample is a push per channel — no per-sample allocation once the
/// columns have grown to the stimulus length.
#[derive(Debug, Clone)]
pub struct Recorder {
    signals: Vec<SignalId>,
    times: Vec<SimTime>,
    columns: Vec<Vec<Value>>,
}

impl Recorder {
    /// Creates a recorder with one channel per signal, with room for
    /// `samples` calls to [`Recorder::sample`] — testbenches that know their
    /// stimulus length up front record without reallocating.
    pub fn with_channel_capacity(signals: &[SignalId], samples: usize) -> Self {
        Self {
            signals: signals.to_vec(),
            times: Vec::with_capacity(samples),
            columns: signals
                .iter()
                .map(|_| Vec::with_capacity(samples))
                .collect(),
        }
    }

    /// Samples every channel from the kernel's current state.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::UnknownSignal`] if a channel refers to a
    /// signal the kernel does not know.
    pub fn sample(&mut self, kernel: &Kernel) -> Result<(), KernelError> {
        // Validate every channel before touching the columns, so a failed
        // sample leaves the recorder unchanged (no torn row).
        for &id in &self.signals {
            kernel.read(id)?;
        }
        for (column, &id) in self.columns.iter_mut().zip(&self.signals) {
            column.push(kernel.read(id)?);
        }
        self.times.push(kernel.now());
        Ok(())
    }

    /// Number of samples taken.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// `true` when nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// The sampled times.
    pub fn times(&self) -> &[SimTime] {
        &self.times
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::Kernel;

    fn reals(column: &[Value]) -> Vec<f64> {
        column.iter().map(|v| v.as_real().unwrap()).collect()
    }

    #[test]
    fn records_series_over_time() {
        let mut k = Kernel::new();
        let h = k.add_signal("h", Value::Real(0.0));
        let b = k.add_signal("b", Value::Real(0.0));
        k.add_process("gain", &[h], move |ctx| {
            let x = ctx.read_real(h)?;
            ctx.write_real(b, 3.0 * x)
        })
        .unwrap();

        let mut rec = Recorder::with_channel_capacity(&[h, b], 0);
        k.settle().unwrap();
        rec.sample(&k).unwrap();
        for i in 1..=3 {
            k.write_initial(h, Value::Real(i as f64)).unwrap();
            k.settle().unwrap();
            rec.sample(&k).unwrap();
        }
        assert_eq!(rec.len(), 4);
        assert!(!rec.is_empty());
        assert_eq!(reals(&rec.columns[1]), vec![0.0, 3.0, 6.0, 9.0]);
        assert_eq!(rec.times().len(), 4);
    }

    #[test]
    fn with_channel_capacity_records_normally() {
        let mut k = Kernel::new();
        let h = k.add_signal("h", Value::Real(1.5));
        let mut rec = Recorder::with_channel_capacity(&[h], 8);
        k.settle().unwrap();
        rec.sample(&k).unwrap();
        assert_eq!(reals(&rec.columns[0]), vec![1.5]);
    }

    #[test]
    fn foreign_signal_leaves_recorder_unchanged() {
        let mut k = Kernel::new();
        let h = k.add_signal("h", Value::Real(1.0));
        let foreign = SignalId(42);
        let mut rec = Recorder::with_channel_capacity(&[h, foreign], 0);
        k.settle().unwrap();
        assert!(rec.sample(&k).is_err());
        assert!(rec.is_empty(), "failed sample must not leave a torn row");
        assert!(rec.columns.iter().all(Vec::is_empty));
    }
}
