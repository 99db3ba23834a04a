//! The hook through which a magnetic-core model plugs into the circuit
//! simulator.

/// A behavioural magnetic core: given the winding field `H`, it produces the
/// flux density `B` and its differential permeability, while keeping its own
/// internal history (hysteresis).
///
/// The transient engine calls [`evaluate`](MagneticCoreModel::evaluate)
/// repeatedly during Newton iteration (trial fields, no state change) and
/// [`commit`](MagneticCoreModel::commit) exactly once per accepted time
/// step.  The Jiles–Atherton models of the `hdl-models` crate implement this
/// trait; [`LinearCore`] is the trivial non-hysteretic implementation used
/// for testing and for linear-inductor comparisons.
pub trait MagneticCoreModel {
    /// Evaluates a trial field `h_new` (A/m) from the last committed state,
    /// returning `(B, dB/dH)` in (T, T·m/A).  Must not mutate history, not
    /// even through interior mutability: equal trial fields must give
    /// equal results until the next commit, because the transient engine
    /// settles a Newton solve that repeats an earlier iterate on the
    /// assumption that it would cycle.
    fn evaluate(&self, h_new: f64) -> (f64, f64);

    /// Commits the step to `h_new`, updating the internal history.
    fn commit(&mut self, h_new: f64);

    /// Flux density at the last committed state (T).
    fn flux_density(&self) -> f64;
}

/// A linear, non-hysteretic core: `B = µ0·µr·H`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinearCore {
    mu_r: f64,
    h: f64,
}

impl LinearCore {
    /// Creates a linear core with relative permeability `mu_r`.
    pub fn new(mu_r: f64) -> Self {
        Self { mu_r, h: 0.0 }
    }
}

impl MagneticCoreModel for LinearCore {
    fn evaluate(&self, h_new: f64) -> (f64, f64) {
        let mu = magnetics::constants::MU0 * self.mu_r;
        (mu * h_new, mu)
    }

    fn commit(&mut self, h_new: f64) {
        self.h = h_new;
    }

    fn flux_density(&self) -> f64 {
        magnetics::constants::MU0 * self.mu_r * self.h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use magnetics::constants::MU0;

    #[test]
    fn linear_core_follows_mu() {
        let mut core = LinearCore::new(1000.0);
        let (b, db_dh) = core.evaluate(100.0);
        assert!((b - MU0 * 1000.0 * 100.0).abs() < 1e-12);
        assert!((db_dh - MU0 * 1000.0).abs() < 1e-12);
        // Evaluate does not change state.
        assert_eq!(core.flux_density(), 0.0);
        core.commit(100.0);
        assert!((core.flux_density() - b).abs() < 1e-15);
    }
}
