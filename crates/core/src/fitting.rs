//! Extraction of Jiles–Atherton parameters from a measured BH loop.
//!
//! Commercial users of core models rarely know `(a, k, c, α, M_sat)`; they
//! have a datasheet loop.  This module provides the building blocks of a
//! derivative-free fit and composes them into [`fit_major_loop`]:
//!
//! * [`BatchObjective`] — the cost function: simulate each candidate's
//!   major loop, extract its summary metrics, compare them against the
//!   measured ones.  It evaluates many candidates per call, either as the
//!   lanes of one structure-of-arrays lockstep sweep
//!   ([`crate::soa::SoaBatch`]) or one by one through the scalar model,
//!   the reference; the `f64` lanes are bit-identical to it, so both
//!   evaluators return the same costs.  The objective owns all its
//!   evaluation scratch, so a steady-state cost call performs **no heap
//!   allocation** (asserted by `tests/fit_allocation.rs` at the workspace
//!   root).
//! * [`CoordinateDescent`] — the local search: a cyclic coordinate search
//!   with a shrinking step.  [`CoordinateDescent::optimize_batch`] descends
//!   any number of starting points together, batching each descent slot's
//!   candidates into one [`BatchObjective::costs`] call.
//! * [`initial_guess`] / [`starting_points`] — physically motivated start
//!   plus seeded, deterministic latin-hypercube perturbations of it for
//!   multi-start searches that escape local minima.
//!
//! It is not a production-grade optimiser, but it closes the loop from
//! measurement to model with the machinery already in this workspace and is
//! exercised by round-trip and property tests.

use magnetics::bh::BhCurve;
use magnetics::loop_analysis::{loop_metrics, IncrementalLoopMetrics, LoopMetrics};
use magnetics::material::JaParameters;
use magnetics::units::Magnetisation;
use waveform::schedule::FieldSchedule;

use crate::config::JaConfig;
use crate::error::JaError;
use crate::model::JilesAtherton;
use crate::soa::{SoaBatch, SoaPrecision};

/// Options of the coordinate-search fit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FitOptions {
    /// Number of full coordinate-search passes.
    pub passes: usize,
    /// Initial relative perturbation applied to each parameter.
    pub initial_step: f64,
    /// Field step of the simulated sweep used to evaluate a candidate.
    pub sweep_step: f64,
}

impl Default for FitOptions {
    fn default() -> Self {
        Self {
            passes: 6,
            initial_step: 0.4,
            sweep_step: 50.0,
        }
    }
}

impl FitOptions {
    /// Validates the options.
    ///
    /// # Errors
    ///
    /// Returns [`JaError::InvalidConfig`] when `passes` is zero (the search
    /// would silently return the unrefined initial guess), or
    /// `initial_step`/`sweep_step` is not finite and strictly positive.
    pub fn validate(&self) -> Result<(), JaError> {
        if self.passes == 0 {
            return Err(JaError::InvalidConfig {
                name: "passes",
                value: 0.0,
                requirement: ">= 1 coordinate-search pass",
            });
        }
        if !self.initial_step.is_finite() || self.initial_step <= 0.0 {
            return Err(JaError::InvalidConfig {
                name: "initial_step",
                value: self.initial_step,
                requirement: "finite and > 0",
            });
        }
        if !self.sweep_step.is_finite() || self.sweep_step <= 0.0 {
            return Err(JaError::InvalidConfig {
                name: "sweep_step",
                value: self.sweep_step,
                requirement: "finite and > 0",
            });
        }
        Ok(())
    }
}

/// Result of a fit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FitResult {
    /// The fitted parameter set.
    pub params: JaParameters,
    /// The residual cost (dimensionless, 0 = exact metric match).
    pub cost: f64,
    /// Number of candidate evaluations performed.
    pub evaluations: usize,
}

/// The fitting cost function over many candidates at once, with reusable
/// evaluation scratch.
///
/// A [`costs`](BatchObjective::costs) call runs every candidate through
/// the shared two-cycle major-loop sweep and returns each one's metric
/// mismatch against the target.  Two evaluators compute the same numbers:
///
/// * **SoA lanes** ([`from_target`](BatchObjective::from_target)) — the
///   candidates become the lanes of an internal [`SoaBatch`] (always `f64`
///   columns, which are bit-identical to the scalar model), and the sweep
///   runs once across all lanes;
/// * **the scalar model** ([`scalar`](BatchObjective::scalar)) — the
///   reference: each candidate runs through its own [`JilesAtherton`]
///   model, one after another.
///
/// Both execute the same operation sequence per candidate and fold its
/// bit-identical `(H, B)` samples straight into [`IncrementalLoopMetrics`]
/// — the lanes inside the lockstep kernel, the scalar model sample by
/// sample — so the evaluator never changes a cost, only the throughput.
/// No candidate's curve or trajectory is ever built.
///
/// All evaluation scratch is owned and reused: the flattened sample vector,
/// the SoA parameter/state columns and folds, and the cost vector
/// only ever grow to the high-water candidate count.  After the first call
/// at a given count, a cost call performs **no heap allocation** (the
/// metrics fold is a handful of running sums) — asserted by the
/// workspace's `tests/fit_allocation.rs`.
#[derive(Debug, Clone)]
pub struct BatchObjective {
    target: LoopMetrics,
    samples: Vec<f64>,
    /// The lockstep batch, or `None` for the scalar evaluator.
    lanes: Option<SoaBatch>,
    costs: Vec<Result<f64, JaError>>,
    evaluations: usize,
}

impl BatchObjective {
    /// Builds an objective that evaluates candidates as SoA lanes, from
    /// already-extracted target metrics; the candidate sweep is two full
    /// cycles to `±h_peak` at `options.sweep_step`.
    ///
    /// # Errors
    ///
    /// Returns [`JaError::InvalidConfig`] for invalid `options` and
    /// [`JaError::Waveform`] for an invalid candidate schedule — the same
    /// failures, for the same inputs, as [`scalar`](Self::scalar).
    pub fn from_target(
        target: LoopMetrics,
        h_peak: f64,
        options: &FitOptions,
    ) -> Result<Self, JaError> {
        let mut objective = Self::scalar(target, h_peak, options)?;
        // The scalar evaluator simulates with the default configuration
        // (`JilesAtherton::new`); the lanes must match it exactly.
        objective.lanes = Some(SoaBatch::new(JaConfig::default(), SoaPrecision::F64)?);
        Ok(objective)
    }

    /// Builds an objective that runs each candidate through the scalar
    /// model — the reference the SoA lanes are held to.
    ///
    /// # Errors
    ///
    /// Returns [`JaError::InvalidConfig`] for invalid `options` and
    /// [`JaError::Waveform`] for an invalid candidate schedule.
    pub fn scalar(target: LoopMetrics, h_peak: f64, options: &FitOptions) -> Result<Self, JaError> {
        options.validate()?;
        let samples = FieldSchedule::major_loop(h_peak, options.sweep_step, 2)?.to_samples();
        Ok(Self {
            target,
            samples,
            lanes: None,
            costs: Vec::new(),
            evaluations: 0,
        })
    }

    /// The measured metrics the fit is matching.
    pub fn target(&self) -> &LoopMetrics {
        &self.target
    }

    /// Number of candidate evaluations performed so far (every candidate
    /// of every call, failed ones included).
    pub fn evaluations(&self) -> usize {
        self.evaluations
    }

    /// Evaluates all candidates and returns their costs in candidate
    /// order, valid until the next call.
    ///
    /// Each entry is the candidate's metric mismatch on success, or the
    /// [`JaError`] that stopped it: an invalid candidate, a diverged sweep,
    /// or a trace that does not form a closable loop.  Both evaluators
    /// return the same entry, bit for bit; a failed candidate does not
    /// disturb its neighbours, and every candidate counts towards
    /// [`evaluations`](Self::evaluations).
    pub fn costs(&mut self, candidates: &[JaParameters]) -> &[Result<f64, JaError>] {
        let lanes = candidates.len();
        self.evaluations += lanes;
        self.costs.clear();
        match &mut self.lanes {
            Some(batch) => {
                batch.assign(candidates);
                batch.run_samples(&self.samples);
                for lane in 0..lanes {
                    let cost = match batch.lane_error(lane) {
                        Some(err) => Err(err.clone()),
                        None => batch
                            .lane_fold(lane)
                            .finish()
                            .map(|metrics| metric_mismatch(&metrics, &self.target))
                            .map_err(JaError::from),
                    };
                    self.costs.push(cost);
                }
            }
            None => {
                for candidate in candidates {
                    let cost = JilesAtherton::new(*candidate)
                        .and_then(|mut model| {
                            let mut fold = IncrementalLoopMetrics::new();
                            for &h in &self.samples {
                                let sample = model.apply_field(h)?;
                                fold.push(sample.h.value(), sample.b.as_tesla());
                            }
                            Ok(fold.finish()?)
                        })
                        .map(|metrics| metric_mismatch(&metrics, &self.target));
                    self.costs.push(cost);
                }
            }
        }
        &self.costs
    }
}

/// Cyclic coordinate search with a multiplicatively shrinking step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoordinateDescent {
    /// Number of full passes over the five coordinates.
    pub passes: usize,
    /// Initial relative perturbation.
    pub initial_step: f64,
    /// Per-pass step shrink factor (0 < shrink < 1).
    pub shrink: f64,
}

impl Default for CoordinateDescent {
    fn default() -> Self {
        Self {
            passes: 6,
            initial_step: 0.4,
            shrink: 0.6,
        }
    }
}

impl CoordinateDescent {
    /// A coordinate search using the passes and initial step of the given
    /// fit options (the default shrink factor of 0.6).
    pub fn from_options(options: &FitOptions) -> Self {
        Self {
            passes: options.passes,
            initial_step: options.initial_step,
            ..Self::default()
        }
    }

    /// Runs the coordinate search from every starting point together: at
    /// every descent slot (pass × coordinate × factor) each live start
    /// proposes its candidate, the proposed candidates are evaluated in one
    /// [`BatchObjective::costs`] call, and each start's accept/reject
    /// decision is applied independently.
    ///
    /// Because a cost is a pure function of its candidate, every start's
    /// trajectory, final parameters, cost bits and evaluation count are
    /// exactly what a search from that start alone would produce, on
    /// either evaluator.  A perturbation that fails validation, or that
    /// clamps back onto the incumbent (e.g. `c` already at its cap), is
    /// skipped, not evaluated.
    ///
    /// One entry per start, in start order: a start whose *initial*
    /// evaluation fails yields that error (it consumed exactly one
    /// evaluation) — a start whose loop cannot even be simulated has no
    /// cost to improve.  Failures on perturbed candidates just reject the
    /// candidate.
    pub fn optimize_batch(
        &self,
        objective: &mut BatchObjective,
        starts: &[JaParameters],
    ) -> Vec<Result<FitResult, JaError>> {
        struct Lane {
            best: JaParameters,
            best_cost: f64,
            evaluations: usize,
        }
        if starts.is_empty() {
            return Vec::new();
        }
        let mut lanes: Vec<Result<Lane, JaError>> = starts
            .iter()
            .zip(objective.costs(starts))
            .map(|(start, cost)| match cost {
                Ok(cost) => Ok(Lane {
                    best: *start,
                    best_cost: *cost,
                    evaluations: 1,
                }),
                Err(err) => Err(err.clone()),
            })
            .collect();

        let mut candidates: Vec<JaParameters> = Vec::with_capacity(starts.len());
        let mut owners: Vec<usize> = Vec::with_capacity(starts.len());
        let mut step = self.initial_step;
        for _ in 0..self.passes {
            for coordinate in 0..5 {
                for &factor in &[1.0 + step, 1.0 / (1.0 + step)] {
                    candidates.clear();
                    owners.clear();
                    for (index, lane) in lanes.iter().enumerate() {
                        let Ok(lane) = lane else { continue };
                        let Ok(candidate) = perturb(&lane.best, coordinate, factor) else {
                            continue;
                        };
                        if candidate == lane.best {
                            continue;
                        }
                        candidates.push(candidate);
                        owners.push(index);
                    }
                    if candidates.is_empty() {
                        continue;
                    }
                    let costs = objective.costs(&candidates);
                    for ((&index, candidate), cost) in owners.iter().zip(&candidates).zip(costs) {
                        let lane = lanes[index].as_mut().expect("only live lanes propose");
                        lane.evaluations += 1;
                        if let Ok(cost) = cost {
                            if *cost < lane.best_cost {
                                lane.best_cost = *cost;
                                lane.best = *candidate;
                            }
                        }
                    }
                }
            }
            step *= self.shrink;
        }

        lanes
            .into_iter()
            .map(|lane| {
                lane.map(|lane| FitResult {
                    params: lane.best,
                    cost: lane.best_cost,
                    evaluations: lane.evaluations,
                })
            })
            .collect()
    }
}

/// Fits JA parameters to a measured major loop with a single
/// coordinate-descent run from the physically motivated initial guess, on
/// the scalar evaluator.
///
/// `measured` must contain at least one full major loop; `h_peak` is the
/// peak field of that measurement (used to regenerate candidate loops).
/// For the multi-start parallel variant, see `hdl_models::fit::fit_batch`.
///
/// # Errors
///
/// Returns [`JaError::InvalidConfig`] for invalid `options`,
/// [`JaError::Material`] when the measured loop is too short or has
/// no crossings (not a loop), and propagates sweep errors for pathological
/// candidates.
pub fn fit_major_loop(
    measured: &BhCurve,
    h_peak: f64,
    options: &FitOptions,
) -> Result<FitResult, JaError> {
    options.validate()?;
    let target = loop_metrics(measured)?;
    let mut objective = BatchObjective::scalar(target, h_peak, options)?;
    let start = initial_guess(&target)?;
    let mut results =
        CoordinateDescent::from_options(options).optimize_batch(&mut objective, &[start]);
    results.pop().expect("one result per start")
}

/// The physically motivated starting point of a fit:
///
/// * `M_sat` from the measured peak flux density,
/// * `k` of the order of the coercivity,
/// * `a` of the order of the coercivity as well (`a2` at the paper's
///   `a2/a` ratio),
/// * modest `c` and `α`.
///
/// # Errors
///
/// Returns [`JaError::Material`] if the derived guess fails parameter
/// validation (degenerate target metrics).
pub fn initial_guess(target: &LoopMetrics) -> Result<JaParameters, JaError> {
    let m_sat_guess =
        (target.b_max.as_tesla() / magnetics::constants::MU0 - target.h_max.value()).max(1.0e5);
    Ok(JaParameters::builder()
        .m_sat(Magnetisation::new(m_sat_guess))
        .a(target.coercivity.value().max(10.0))
        .a2(A2_RATIO * target.coercivity.value().max(10.0))
        .k(target.coercivity.value().max(10.0))
        .alpha(1.0e-3)
        .c(0.2)
        .build()?)
}

/// The paper's `a2/a` ratio (3500/2000), used whenever a fit has to derive
/// `a2` from `a` without caller guidance.
const A2_RATIO: f64 = 1.75;

/// Deterministic seeded starting points for a multi-start fit.
///
/// Start 0 is [`initial_guess`]; the remaining `starts − 1` points are
/// latin-hypercube perturbations of it — each of the five coordinates is
/// stratified into `starts − 1` bins, permuted with a splitmix64 stream
/// seeded from `seed`, and sampled log-uniformly (`c` uniformly) within
/// spreads wide enough to escape the guess's basin:
///
/// | coordinate | spread around the guess |
/// |---|---|
/// | `M_sat` | ×\[0.5, 2\] |
/// | `a` (and `a2` at the fixed ratio) | ×\[0.25, 4\] |
/// | `k` | ×\[0.25, 4\] |
/// | `α` | ×\[0.1, 10\] |
/// | `c` | uniform in \[0.02, 0.9\] |
///
/// The same `(target, starts, seed)` triple always yields the same points,
/// in the same order, on every machine — multi-start reports stay
/// byte-identical across worker counts.
///
/// # Errors
///
/// Returns [`JaError::InvalidConfig`] for `starts == 0` and
/// [`JaError::Material`] if a derived point fails validation.
pub fn starting_points(
    target: &LoopMetrics,
    starts: usize,
    seed: u64,
) -> Result<Vec<JaParameters>, JaError> {
    if starts == 0 {
        return Err(JaError::InvalidConfig {
            name: "starts",
            value: 0.0,
            requirement: ">= 1 start",
        });
    }
    let guess = initial_guess(target)?;
    let mut points = Vec::with_capacity(starts);
    points.push(guess);

    let extra = starts - 1;
    if extra == 0 {
        return Ok(points);
    }
    let mut rng = SplitMix64::new(seed);
    // One stratified-and-permuted column of unit samples per coordinate.
    let columns: [Vec<f64>; 5] = std::array::from_fn(|_| {
        let mut strata: Vec<usize> = (0..extra).collect();
        rng.shuffle(&mut strata);
        strata
            .into_iter()
            .map(|s| (s as f64 + rng.next_f64()) / extra as f64)
            .collect()
    });
    let log_spread = |u: f64, spread: f64| spread.powf(2.0 * u - 1.0);
    let [m_sat_col, a_col, k_col, alpha_col, c_col] = columns;
    for ((((u_m_sat, u_a), u_k), u_alpha), u_c) in m_sat_col
        .into_iter()
        .zip(a_col)
        .zip(k_col)
        .zip(alpha_col)
        .zip(c_col)
    {
        let a = guess.a * log_spread(u_a, 4.0);
        let point = JaParameters::builder()
            .m_sat(Magnetisation::new(
                guess.m_sat.value() * log_spread(u_m_sat, 2.0),
            ))
            .a(a)
            .a2(A2_RATIO * a)
            .k(guess.k * log_spread(u_k, 4.0))
            .alpha(guess.alpha * log_spread(u_alpha, 10.0))
            .c(0.02 + 0.88 * u_c)
            .build()?;
        points.push(point);
    }
    Ok(points)
}

/// The splitmix64 stream behind [`starting_points`] — small, seedable and
/// identical on every platform (determinism is part of the fit report's
/// contract).
#[derive(Debug, Clone)]
struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn shuffle(&mut self, slice: &mut [usize]) {
        for i in (1..slice.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            slice.swap(i, j);
        }
    }
}

/// Perturbs one coordinate of a parameter set by a multiplicative factor.
///
/// `a2` follows `a` at the incumbent's own `a2/a` ratio, so perturbing any
/// *other* coordinate leaves a caller-supplied `a2` untouched.
fn perturb(params: &JaParameters, coordinate: usize, factor: f64) -> Result<JaParameters, JaError> {
    let mut p = *params;
    match coordinate {
        0 => p.m_sat = Magnetisation::new(p.m_sat.value() * factor),
        1 => {
            // Scale a and a2 together: the ratio a2/a is preserved instead
            // of being re-derived, so a caller-supplied a2 survives.
            p.a *= factor;
            p.a2 *= factor;
        }
        2 => p.k *= factor,
        3 => p.c = (p.c * factor).min(0.95),
        _ => p.alpha *= factor,
    }
    p.validate()?;
    Ok(p)
}

/// Relative mismatch of the four loop metrics, averaged.
///
/// Each term is the symmetric relative error `|a − b| / max(|a|, |b|,
/// floor)`, with the floor a tiny fraction of the loop's natural scale *in
/// that metric's own unit* (peak flux density for the tesla-valued terms,
/// peak field for coercivity, their product for the loop area).  A
/// near-zero target therefore degrades to an error-over-scale comparison
/// instead of mixing raw teslas or J·m⁻³ into an otherwise dimensionless
/// average.
fn metric_mismatch(candidate: &LoopMetrics, target: &LoopMetrics) -> f64 {
    let b_scale = target.b_max.as_tesla().abs();
    let h_scale = target.h_max.value().abs();
    let rel = |a: f64, b: f64, floor: f64| {
        let denom = a.abs().max(b.abs()).max(floor);
        if denom > 0.0 {
            (a - b).abs() / denom
        } else {
            0.0
        }
    };
    (rel(
        candidate.b_max.as_tesla(),
        target.b_max.as_tesla(),
        1e-6 * b_scale,
    ) + rel(
        candidate.coercivity.value(),
        target.coercivity.value(),
        1e-6 * h_scale,
    ) + rel(
        candidate.remanence.as_tesla(),
        target.remanence.as_tesla(),
        1e-6 * b_scale,
    ) + rel(
        candidate.loop_area,
        target.loop_area,
        1e-6 * b_scale * h_scale,
    )) / 4.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::HysteresisBackend;

    fn measured_loop(step: f64) -> BhCurve {
        let mut model = JilesAtherton::new(JaParameters::date2006()).unwrap();
        let schedule = FieldSchedule::major_loop(10_000.0, step, 2).unwrap();
        model.run_samples(&schedule.to_samples()).unwrap()
    }

    /// Generates a "measured" loop from known parameters, fits it, and
    /// checks that the fitted model reproduces the loop metrics (the
    /// parameters themselves are not uniquely identifiable from four
    /// metrics, so the metric error is the honest criterion).
    #[test]
    fn round_trip_fit_recovers_loop_metrics() {
        let measured = measured_loop(50.0);
        let target = loop_metrics(&measured).unwrap();

        let fit = fit_major_loop(&measured, 10_000.0, &FitOptions::default()).unwrap();
        assert!(fit.evaluations > 10);
        assert!(fit.cost < 0.15, "residual cost {}", fit.cost);

        let schedule = FieldSchedule::major_loop(10_000.0, 50.0, 2).unwrap();
        let mut fitted_model = JilesAtherton::new(fit.params).unwrap();
        let fitted_curve = fitted_model.run_samples(&schedule.to_samples()).unwrap();
        let fitted = loop_metrics(&fitted_curve).unwrap();
        assert!(
            (fitted.b_max.as_tesla() - target.b_max.as_tesla()).abs() / target.b_max.as_tesla()
                < 0.15
        );
        assert!(
            (fitted.coercivity.value() - target.coercivity.value()).abs()
                / target.coercivity.value()
                < 0.3
        );
    }

    #[test]
    fn objective_reuses_scratch_and_counts_evaluations() {
        let target = loop_metrics(&measured_loop(100.0)).unwrap();
        let mut objective =
            BatchObjective::scalar(target, 10_000.0, &FitOptions::default()).unwrap();
        let mut cost = |params: JaParameters| objective.costs(&[params])[0].clone();
        let truth_cost = cost(JaParameters::date2006()).unwrap();
        assert!(
            truth_cost < 0.05,
            "truth parameters nearly reproduce their own loop: {truth_cost}"
        );
        assert!(cost(JaParameters::hard_steel()).unwrap() > truth_cost);
        // A failed evaluation still counts (it consumed a simulation slot).
        let mut bad = JaParameters::date2006();
        bad.k = -1.0;
        assert!(cost(bad).is_err());
        // Repeat evaluations are bit-identical: the scratch reuse does not
        // leak state between candidates.
        assert_eq!(
            cost(JaParameters::date2006()).unwrap().to_bits(),
            truth_cost.to_bits()
        );
        assert_eq!(objective.evaluations(), 4);
    }

    #[test]
    fn perturb_preserves_a2_ratio_on_unrelated_coordinates() {
        let params = JaParameters::builder()
            .a(2_000.0)
            .a2(3_000.0)
            .build()
            .unwrap();
        // Perturbing m_sat, k, c or alpha must leave a and a2 untouched.
        for coordinate in [0usize, 2, 3, 4] {
            let p = perturb(&params, coordinate, 1.3).unwrap();
            assert_eq!(p.a, params.a, "coordinate {coordinate}");
            assert_eq!(p.a2, params.a2, "coordinate {coordinate}");
        }
        // Perturbing a scales a2 by the same factor: the ratio survives.
        let p = perturb(&params, 1, 1.3).unwrap();
        assert!((p.a2 / p.a - params.a2 / params.a).abs() < 1e-12);
    }

    #[test]
    fn clamped_c_perturbation_is_skipped_not_evaluated() {
        let target = loop_metrics(&measured_loop(250.0)).unwrap();
        let mut objective =
            BatchObjective::scalar(target, 10_000.0, &FitOptions::default()).unwrap();
        let at_cap = JaParameters::builder().c(0.95).build().unwrap();
        // The upward c-perturbation clamps back to the incumbent...
        let clamped = perturb(&at_cap, 3, 1.4).unwrap();
        assert_eq!(clamped, at_cap);
        // ...and the optimizer must not burn an evaluation on it: one full
        // pass evaluates the start plus at most 2 candidates per coordinate,
        // minus the skipped no-op.
        let optimizer = CoordinateDescent {
            passes: 1,
            ..CoordinateDescent::default()
        };
        let result = optimizer.optimize_batch(&mut objective, &[at_cap])[0]
            .clone()
            .unwrap();
        assert!(
            result.evaluations < 1 + 5 * 2,
            "clamped candidate was evaluated: {} evaluations",
            result.evaluations
        );
    }

    #[test]
    fn batch_objective_matches_scalar_costs_bitwise() {
        let measured = measured_loop(250.0);
        let target = loop_metrics(&measured).unwrap();
        let options = FitOptions::default();
        let mut scalar = BatchObjective::scalar(target, 10_000.0, &options).unwrap();
        let mut batched = BatchObjective::from_target(target, 10_000.0, &options).unwrap();

        let mut bad = JaParameters::date2006();
        bad.k = -1.0;
        let candidates = [
            JaParameters::date2006(),
            JaParameters::hard_steel(),
            bad,
            JaParameters::soft_ferrite(),
        ];
        let batch_costs: Vec<Result<f64, JaError>> = batched.costs(&candidates).to_vec();
        assert_eq!(batched.evaluations(), candidates.len());
        for (candidate, batch_cost) in candidates.iter().zip(&batch_costs) {
            match (scalar.costs(&[*candidate])[0].clone(), batch_cost) {
                (Ok(s), Ok(b)) => assert_eq!(s.to_bits(), b.to_bits()),
                (Err(s), Err(b)) => assert_eq!(&s, b),
                (s, b) => panic!("cost kinds diverged: {s:?} vs {b:?}"),
            }
        }
        // Repeat calls are bit-identical: the lane scratch fully resets.
        let again = batched.costs(&candidates).to_vec();
        for (a, b) in batch_costs.iter().zip(&again) {
            match (a, b) {
                (Ok(x), Ok(y)) => assert_eq!(x.to_bits(), y.to_bits()),
                (Err(x), Err(y)) => assert_eq!(x, y),
                _ => panic!("repeat call changed a cost kind"),
            }
        }
    }

    #[test]
    fn lockstep_descent_matches_scalar_descent_bitwise() {
        let measured = measured_loop(250.0);
        let target = loop_metrics(&measured).unwrap();
        let options = FitOptions {
            passes: 2,
            sweep_step: 250.0,
            ..FitOptions::default()
        };
        let mut starts = starting_points(&target, 5, 42).unwrap();
        // One hopeless start: its very first evaluation fails, so the
        // lockstep lane must report the same error and count 1 evaluation.
        let mut bad = starts[1];
        bad.k = -1.0;
        starts.push(bad);

        let optimizer = CoordinateDescent::from_options(&options);
        let mut batched = BatchObjective::from_target(target, 10_000.0, &options).unwrap();
        let lockstep = optimizer.optimize_batch(&mut batched, &starts);
        assert_eq!(lockstep.len(), starts.len());

        for (start, lockstep_result) in starts.iter().zip(&lockstep) {
            let mut objective = BatchObjective::scalar(target, 10_000.0, &options).unwrap();
            let alone = optimizer
                .optimize_batch(&mut objective, &[*start])
                .remove(0);
            match (alone, lockstep_result) {
                (Ok(scalar), Ok(lane)) => {
                    assert_eq!(scalar.cost.to_bits(), lane.cost.to_bits());
                    assert_eq!(scalar.params, lane.params);
                    assert_eq!(scalar.evaluations, lane.evaluations);
                }
                (Err(scalar), Err(lane)) => {
                    assert_eq!(&scalar, lane);
                    assert_eq!(objective.evaluations(), 1);
                }
                (s, l) => panic!("descent outcomes diverged: {s:?} vs {l:?}"),
            }
        }
        // The dead lane stopped proposing candidates after its start
        // failed: total batch evaluations = live starts' work + 1.
        let live: usize = lockstep
            .iter()
            .filter_map(|r| r.as_ref().ok().map(|f| f.evaluations))
            .sum();
        assert_eq!(batched.evaluations(), live + 1);
    }

    #[test]
    fn fit_rejects_non_loop_input() {
        // A monotone initial-magnetisation curve has no B = 0 crossing away
        // from the origin -> loop metrics (and thus the fit) must fail.
        let mut curve = BhCurve::new();
        for i in 0..100 {
            let h = i as f64 * 10.0;
            curve.push_raw(h, (h / 5000.0).tanh(), 0.0);
        }
        assert!(fit_major_loop(&curve, 1_000.0, &FitOptions::default()).is_err());
    }

    #[test]
    fn fit_rejects_empty_measured_loop() {
        let err = fit_major_loop(&BhCurve::new(), 1_000.0, &FitOptions::default()).unwrap_err();
        assert!(
            matches!(
                err,
                JaError::Material(magnetics::MagneticsError::InsufficientSamples { .. })
            ),
            "{err}"
        );
    }

    #[test]
    fn fit_rejects_zero_passes() {
        let options = FitOptions {
            passes: 0,
            ..FitOptions::default()
        };
        // Options are checked before the measured loop, so even a valid
        // loop is irrelevant here.
        let err = fit_major_loop(&BhCurve::new(), 1_000.0, &options).unwrap_err();
        assert!(
            matches!(err, JaError::InvalidConfig { name: "passes", .. }),
            "{err}"
        );
    }

    #[test]
    fn fit_rejects_degenerate_steps() {
        for (initial_step, sweep_step, name) in [
            (0.0, 50.0, "initial_step"),
            (f64::NAN, 50.0, "initial_step"),
            (0.4, -50.0, "sweep_step"),
            (0.4, f64::INFINITY, "sweep_step"),
        ] {
            let options = FitOptions {
                passes: 1,
                initial_step,
                sweep_step,
            };
            let err = fit_major_loop(&BhCurve::new(), 1_000.0, &options).unwrap_err();
            match err {
                JaError::InvalidConfig { name: got, .. } => assert_eq!(got, name),
                other => panic!("expected InvalidConfig for {name}, got {other}"),
            }
        }
    }

    #[test]
    fn metric_mismatch_is_zero_for_identical_metrics() {
        let measured = measured_loop(100.0);
        let metrics = loop_metrics(&measured).unwrap();
        assert_eq!(metric_mismatch(&metrics, &metrics), 0.0);
    }

    #[test]
    fn metric_mismatch_near_zero_target_stays_dimensionless() {
        let measured = measured_loop(100.0);
        let mut target = loop_metrics(&measured).unwrap();
        let candidate = target;
        // A (synthetic) target with zero remanence: the old fallback
        // returned the candidate's remanence in raw teslas; the symmetric
        // form caps the term at 1 — same scale as the other three terms.
        target.remanence = magnetics::units::FluxDensity::new(0.0);
        let mismatch = metric_mismatch(&candidate, &target);
        assert!(mismatch <= 0.25 + 1e-12, "mismatch {mismatch}");
        // And it is symmetric: swapping candidate and target changes
        // nothing.
        let swapped = metric_mismatch(&target, &candidate);
        assert!((mismatch - swapped).abs() < 1e-15);
    }

    #[test]
    fn starting_points_are_deterministic_and_valid() {
        let measured = measured_loop(100.0);
        let target = loop_metrics(&measured).unwrap();
        let a = starting_points(&target, 8, 42).unwrap();
        let b = starting_points(&target, 8, 42).unwrap();
        assert_eq!(a.len(), 8);
        assert_eq!(a, b, "same seed, same points");
        assert_eq!(a[0], initial_guess(&target).unwrap());
        for (i, point) in a.iter().enumerate() {
            assert!(point.validate().is_ok(), "start {i}: {point:?}");
            assert!((point.a2 / point.a - A2_RATIO).abs() < 1e-12);
            assert!(point.c < 0.95);
        }
        // A different seed moves every perturbed start.
        let c = starting_points(&target, 8, 43).unwrap();
        assert_eq!(c[0], a[0], "start 0 is the deterministic guess");
        assert!(a[1..] != c[1..]);
        // Degenerate counts.
        assert_eq!(starting_points(&target, 1, 42).unwrap().len(), 1);
        assert!(starting_points(&target, 0, 42).is_err());
    }

    #[test]
    fn starting_points_stratify_each_coordinate() {
        // Latin-hypercube property: with n perturbed starts, each
        // coordinate's n samples land in n distinct strata — projected onto
        // any single axis the starts never collapse onto one value.
        let measured = measured_loop(100.0);
        let target = loop_metrics(&measured).unwrap();
        let points = starting_points(&target, 9, 7).unwrap();
        let guess = points[0];
        let n = points.len() - 1;
        for (extract, spread) in [
            (
                Box::new(|p: &JaParameters| p.m_sat.value() / guess.m_sat.value())
                    as Box<dyn Fn(&JaParameters) -> f64>,
                2.0f64,
            ),
            (Box::new(|p: &JaParameters| p.a / guess.a), 4.0),
            (Box::new(|p: &JaParameters| p.k / guess.k), 4.0),
            (Box::new(|p: &JaParameters| p.alpha / guess.alpha), 10.0),
        ] {
            let mut strata: Vec<usize> = points[1..]
                .iter()
                .map(|p| {
                    // Invert factor = spread^(2u-1) back to the unit sample.
                    let u = (extract(p).ln() / spread.ln() + 1.0) / 2.0;
                    assert!((0.0..1.0).contains(&u), "u = {u}");
                    (u * n as f64) as usize
                })
                .collect();
            strata.sort_unstable();
            strata.dedup();
            assert_eq!(strata.len(), n, "one sample per stratum");
        }
    }
}
