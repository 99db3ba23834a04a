//! Transient analysis with per-step Newton iteration and a pluggable step
//! controller.
//!
//! Two controllers are available through [`StepControl`]:
//!
//! * [`StepControl::Fixed`] — march `ceil(t_end / dt)` equal steps.  Time
//!   points are derived from the step *index* (`t_k = k·dt`, last step
//!   clamped to `t_end`), never from `t += dt` float accumulation, so the
//!   final time is exactly `t_end` and long runs do not drift.
//! * [`StepControl::Adaptive`] — a variable-step controller reusing
//!   [`AdaptiveOptions`] from the ODE layer.  Each step is accepted or
//!   rejected on a backward-Euler local-truncation-error estimate (half the
//!   tolerance-weighted per-step solution change), and the Newton iteration
//!   count feeds back into the step-size choice: a step that fails to
//!   converge or converges only near the iteration limit is barred from
//!   growing.  A guard recognises h-independent residuals (the quantised
//!   magnetisation updates of the timeless JA core produce companion
//!   voltages that *grow* as the step shrinks) and climbs out of them
//!   instead of refining into a noise floor; `min_step` acts as the
//!   resolution floor of the run, not a failure threshold.  This is the
//!   solver behaviour the paper's analogue-simulator experiments rely on:
//!   large steps through the flat, saturated stretches of the B–H loop,
//!   small steps around the knees and turning points where the magnetising
//!   current spikes.
//!
//! Either way a run takes at most [`MAX_SAMPLES`] time steps — the ceiling
//! field schedules live under, so a circuit drive yields no more field
//! samples than a schedule may.  [`TransientAnalysis::new`] and
//! [`TransientAnalysis::adaptive`] refuse a drive that cannot finish under
//! it, and the adaptive controller stops with the same error if it reaches
//! the ceiling anyway.

use waveform::schedule::MAX_SAMPLES;

use crate::circuit::elements::{CommitContext, StampContext};
use crate::circuit::{Circuit, Node};
use crate::error::SolverError;
use crate::linalg::Matrix;
use crate::ode::adaptive::AdaptiveOptions;

/// How [`TransientAnalysis`] chooses its time steps.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum StepControl {
    /// Equal steps of [`TransientAnalysis::dt`], with index-based time
    /// arithmetic (the final time point is exactly `t_end`).
    #[default]
    Fixed,
    /// Variable steps controlled by a local-truncation-error estimate and
    /// Newton-iteration-count feedback.  `initial_step` seeds the first
    /// step; `min_step`/`max_step` bound the controller; `rel_tol`/
    /// `abs_tol` weight the per-unknown error estimate.
    Adaptive(AdaptiveOptions),
}

/// Configuration of a transient run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransientAnalysis {
    /// Time-step size in seconds (fixed control), or ignored in favour of
    /// the controller's `initial_step` under adaptive control.
    pub dt: f64,
    /// End time in seconds (the run starts at `t = 0`).
    pub t_end: f64,
    /// Maximum Newton iterations per time step.
    pub max_newton_iterations: usize,
    /// Convergence tolerance on the solution update (per unknown, relative
    /// to `1 + |x|`).
    pub tolerance: f64,
    /// The step controller.
    pub control: StepControl,
}

impl TransientAnalysis {
    /// Creates a fixed-step transient analysis from a step size and an end
    /// time, with default Newton settings (50 iterations, 1e-9 tolerance).
    ///
    /// # Errors
    ///
    /// Returns [`SolverError::InvalidStep`] for non-finite or non-positive
    /// `dt` / `t_end`, or `dt > t_end`, and [`SolverError::TooManySteps`]
    /// when `t_end / dt` is over [`MAX_SAMPLES`] steps.
    pub fn new(dt: f64, t_end: f64) -> Result<Self, SolverError> {
        if !dt.is_finite() || dt <= 0.0 {
            return Err(SolverError::InvalidStep {
                name: "dt",
                value: dt,
            });
        }
        if !t_end.is_finite() || t_end <= 0.0 || dt > t_end {
            return Err(SolverError::InvalidStep {
                name: "t_end",
                value: t_end,
            });
        }
        fixed_step_count(dt, t_end)?;
        Ok(Self {
            dt,
            t_end,
            max_newton_iterations: 50,
            tolerance: 1e-9,
            control: StepControl::Fixed,
        })
    }

    /// Creates an adaptive transient analysis from step-control options and
    /// an end time, with default Newton settings.
    ///
    /// # Errors
    ///
    /// Returns [`SolverError::InvalidStep`] for invalid options
    /// (`initial_step`/`min_step` not finite and positive,
    /// `max_step < min_step`) or a non-finite/non-positive `t_end`, and
    /// [`SolverError::TooManySteps`] when `t_end / max_step` — the fewest
    /// steps the controller can take — is over [`MAX_SAMPLES`].
    pub fn adaptive(options: AdaptiveOptions, t_end: f64) -> Result<Self, SolverError> {
        options.validate()?;
        if !t_end.is_finite() || t_end <= 0.0 {
            return Err(SolverError::InvalidStep {
                name: "t_end",
                value: t_end,
            });
        }
        if t_end / options.max_step > MAX_SAMPLES as f64 {
            return Err(too_many_steps(t_end));
        }
        Ok(Self {
            dt: options.initial_step,
            t_end,
            max_newton_iterations: 50,
            tolerance: 1e-9,
            control: StepControl::Adaptive(options),
        })
    }

    /// Overrides the step controller.
    pub fn with_step_control(mut self, control: StepControl) -> Self {
        self.control = control;
        self
    }

    /// Overrides the Newton iteration limit.
    pub fn with_max_newton_iterations(mut self, limit: usize) -> Self {
        self.max_newton_iterations = limit.max(1);
        self
    }

    /// Overrides the convergence tolerance.
    pub fn with_tolerance(mut self, tolerance: f64) -> Self {
        self.tolerance = tolerance;
        self
    }

    /// Runs the analysis on a circuit, consuming and returning the mutated
    /// circuit (element states advance as the transient progresses) along
    /// with the result traces.
    ///
    /// # Errors
    ///
    /// Returns [`SolverError::InvalidCircuit`] for an empty circuit,
    /// [`SolverError::SingularMatrix`] when the MNA matrix cannot be
    /// factorised (floating node, inconsistent sources),
    /// [`SolverError::TooManySteps`] when the run would take more than
    /// [`MAX_SAMPLES`] steps, and propagates any other solver error.  The
    /// adaptive controller cannot fail short of that ceiling: at
    /// `min_step` it accepts the best available step (counting Newton
    /// non-convergence in the statistics) instead of erroring.
    pub fn run(&self, circuit: &mut Circuit) -> Result<TransientResult, SolverError> {
        let layout = SystemLayout::of(circuit)?;
        match self.control {
            StepControl::Fixed => self.run_fixed(circuit, &layout),
            StepControl::Adaptive(options) => {
                self.run_adaptive(circuit, &layout, options, MAX_SAMPLES)
            }
        }
    }

    fn run_fixed(
        &self,
        circuit: &mut Circuit,
        layout: &SystemLayout,
    ) -> Result<TransientResult, SolverError> {
        // The fields are public, so `new`'s check may have been bypassed.
        let steps = fixed_step_count(self.dt, self.t_end)?;
        let mut workspace = Workspace::new(layout.n_unknowns);
        let mut stats = TransientStats::default();
        let mut x_prev = vec![0.0; layout.n_unknowns];
        let mut times = Vec::with_capacity(steps + 1);
        let mut solutions = Vec::with_capacity((steps + 1) * layout.n_unknowns);
        times.push(0.0);
        solutions.extend_from_slice(&x_prev);

        // Per-step index arithmetic: t_k = k·dt with the final index pinned
        // to t_end, so no float accumulation can drift the grid and the run
        // always ends exactly at t_end.
        let mut t = 0.0;
        for k in 0..steps {
            let t_next = if k + 1 == steps {
                self.t_end
            } else {
                (k + 1) as f64 * self.dt
            };
            let h = t_next - t;
            let solve = self.newton_solve(
                circuit,
                layout,
                &mut workspace,
                &x_prev,
                t_next,
                h,
                &mut stats,
            )?;
            if !solve.converged {
                stats.non_converged_steps += 1;
            }
            commit_elements(circuit, layout, &workspace.x, t_next, h);
            stats.accepted_steps += 1;
            std::mem::swap(&mut x_prev, &mut workspace.x);
            t = t_next;
            times.push(t);
            solutions.extend_from_slice(&x_prev);
        }

        Ok(TransientResult {
            times,
            solutions,
            n_unknowns: layout.n_unknowns,
            node_count: layout.node_count,
            branch_offsets: layout.branch_offsets.clone(),
            stats,
            max_lte_estimate: None,
        })
    }

    /// The adaptive controller, refusing to take more than `max_steps`
    /// accepted steps ([`MAX_SAMPLES`] outside this module's tests).
    fn run_adaptive(
        &self,
        circuit: &mut Circuit,
        layout: &SystemLayout,
        options: AdaptiveOptions,
        max_steps: usize,
    ) -> Result<TransientResult, SolverError> {
        // `TransientAnalysis::adaptive` validates on construction, but the
        // controller can also be injected through `with_step_control`.
        options.validate()?;

        let mut workspace = Workspace::new(layout.n_unknowns);
        let mut stats = TransientStats::default();
        let mut x_prev = vec![0.0; layout.n_unknowns];
        let mut times = vec![0.0];
        let mut solutions = x_prev.clone();
        let mut max_lte: f64 = 0.0;

        let mut t = 0.0;
        let mut h = options.initial_step.min(options.max_step).min(self.t_end);
        let mut first_step = true;
        // Error norm and step size of the previous rejected attempt at the
        // *same* time point.  Truncation error shrinks at least linearly
        // with h; when a ≥2x shrink fails to reduce the estimate, the
        // residual is a model discontinuity (e.g. the quantised
        // magnetisation updates of the timeless JA core, whose companion
        // voltage N·A·ΔB/h *grows* as h shrinks), and the controller
        // accepts instead of chasing an unreachable tolerance downward.
        // Such noise shrinks *relative to the real per-step change* as h
        // grows, so the accept also restores the pre-shrink step and climbs
        // from there — otherwise every reject-then-accept pair would net a
        // shrink and pin h at the noise floor.
        let mut last_rejected: Option<(f64, f64)> = None;

        while t < self.t_end {
            if stats.accepted_steps == max_steps {
                return Err(too_many_steps(self.t_end));
            }
            // A working step below the ulp of t cannot advance the grid
            // (t + h == t in f64): floor it there, whatever min_step says,
            // so a zero-length "accepted" step can never stall the loop or
            // break the strictly-increasing-times invariant.
            let ulp = (2.0 * t.abs() * f64::EPSILON).max(f64::MIN_POSITIVE);
            h = h.max(ulp);
            // Land exactly on t_end instead of overshooting or creeping up
            // to it through float residue.  The final sliver may legally be
            // shorter than min_step.
            let (t_next, h_step) = if self.t_end - t <= h {
                (self.t_end, self.t_end - t)
            } else {
                (t + h, h)
            };

            let solve = self.newton_solve(
                circuit,
                layout,
                &mut workspace,
                &x_prev,
                t_next,
                h_step,
                &mut stats,
            )?;

            // Backward-Euler LTE estimate: the local error is −h²/2·x″ +
            // O(h³); half the per-step solution change (h·x′ to first
            // order) bounds it conservatively wherever the solution varies,
            // which is exactly where the estimate must bite.  `error_norm`
            // weighs the estimate against the controller tolerances;
            // `step_lte` is the tolerance-independent record kept for
            // diagnostics and the tolerance-halving property test.
            let mut error_norm: f64 = 0.0;
            let mut step_lte: f64 = 0.0;
            for (new, old) in workspace.x.iter().zip(&x_prev) {
                let lte = 0.5 * (new - old).abs();
                let magnitude = new.abs().max(old.abs());
                let scale = options.abs_tol + options.rel_tol * magnitude;
                error_norm = error_norm.max(lte / scale);
                step_lte = step_lte.max(lte / (1.0 + magnitude));
            }

            // Acceptance.  Three ways past the plain `error_norm <= 1`
            // test, each of which keeps the controller out of a regime
            // where refinement cannot succeed:
            //
            // * the very first step — at t = 0 the algebraic unknowns jump
            //   from the all-zero initial guess to the operating point the
            //   sources impose, and that jump is not a truncation error
            //   (keep `initial_step` small);
            // * a "noise" step — shrinking did not reduce the estimate
            //   (see `last_rejected` above);
            // * the floor — a step already at `min_step` is taken rather
            //   than refined further; `min_step` is the resolution floor
            //   of the run, not a failure threshold.
            //
            // Newton non-convergence is NOT a rejection: shrinking the step
            // raises the companion gain N·A/h of a quantised core and makes
            // the corrector *less* likely to converge, so the best iterate
            // is accepted and counted (exactly what fixed stepping has
            // always done), while the LTE test above polices its quality —
            // a limit-cycling garbage iterate shows up as a large solution
            // change and is rejected on error, not on iteration count.
            let noise_accept =
                last_rejected.is_some_and(|(previous, _)| error_norm >= 0.9 * previous);
            let floor_accept = h_step <= options.min_step;
            if first_step || noise_accept || floor_accept || error_norm <= 1.0 {
                // The LTE record tracks truncation error only: start-up
                // jumps and discontinuity-noise accepts are excluded.
                if !first_step && error_norm <= 1.0 {
                    max_lte = max_lte.max(step_lte);
                }
                if !solve.converged {
                    stats.non_converged_steps += 1;
                }
                commit_elements(circuit, layout, &workspace.x, t_next, h_step);
                stats.accepted_steps += 1;
                let rejected_h = last_rejected.map(|(_, h)| h);
                last_rejected = None;
                std::mem::swap(&mut x_prev, &mut workspace.x);
                t = t_next;
                times.push(t);
                solutions.extend_from_slice(&x_prev);

                h = if noise_accept {
                    // h-independent residual: climb from the step size the
                    // rejection started at, not from the shrunken retry.
                    rejected_h.unwrap_or(h_step).max(h_step) * 1.2
                } else {
                    // First-order controller: the estimate scales
                    // ~linearly with h, so the optimal next step is
                    // h/error_norm with a safety factor; growth is capped
                    // at 2x per step.  Newton-iteration-count feedback: a
                    // corrector that did not converge, or needed more than
                    // half its iteration budget, bars growth.
                    let mut factor = if error_norm > 0.0 {
                        (0.8 / error_norm).min(2.0)
                    } else {
                        2.0
                    };
                    if !solve.converged || 2 * solve.iterations > self.max_newton_iterations {
                        factor = factor.min(1.0);
                    }
                    h_step * factor.max(0.25)
                }
                .clamp(options.min_step, options.max_step);
                first_step = false;
            } else {
                stats.rejected_steps += 1;
                last_rejected = Some((error_norm, h_step));
                // The shrink is floored at 4x: one noisy estimate must not
                // dive the step so deep that the controller spends many
                // noise-accepts climbing back out.
                h = (h_step * (0.8 / error_norm).clamp(0.25, 0.5)).max(options.min_step);
            }
        }

        Ok(TransientResult {
            times,
            solutions,
            n_unknowns: layout.n_unknowns,
            node_count: layout.node_count,
            branch_offsets: layout.branch_offsets.clone(),
            stats,
            max_lte_estimate: Some(max_lte),
        })
    }

    /// One backward-Euler step: assembles and solves the Newton iteration
    /// for the system at `t_next` with step `h`, starting from `x_prev`,
    /// and leaves the final iterate in `workspace.x`.  Does not mutate
    /// element state — rejection is free — and does not allocate: every
    /// iteration stamps, factorises and solves inside the workspace.
    #[allow(clippy::too_many_arguments)]
    fn newton_solve(
        &self,
        circuit: &Circuit,
        layout: &SystemLayout,
        workspace: &mut Workspace,
        x_prev: &[f64],
        t_next: f64,
        h: f64,
        stats: &mut TransientStats,
    ) -> Result<NewtonSolve, SolverError> {
        let Workspace {
            matrix,
            rhs,
            pivots,
            x,
            x_new,
        } = workspace;
        x.copy_from_slice(x_prev);
        for iteration in 0..self.max_newton_iterations {
            matrix.clear();
            rhs.iter_mut().for_each(|v| *v = 0.0);
            for (element, &offset) in circuit.elements().iter().zip(&layout.branch_offsets) {
                let mut ctx = StampContext {
                    matrix,
                    rhs,
                    x_guess: x,
                    x_prev,
                    node_count: layout.node_count,
                    branch_offset: offset,
                    time: t_next,
                    dt: h,
                };
                element.stamp(&mut ctx);
            }
            matrix.factorise_in_place(pivots)?;
            matrix.solve_factored(pivots, rhs, x_new)?;
            stats.lu_solves += 1;
            stats.newton_iterations += 1;

            let mut max_delta: f64 = 0.0;
            for (new, old) in x_new.iter().zip(x.iter()) {
                let scale = 1.0 + new.abs().max(old.abs());
                max_delta = max_delta.max((new - old).abs() / scale);
            }
            std::mem::swap(x, x_new);
            // Converged once an update after the first is within tolerance;
            // a purely linear circuit converges after the first solve, which
            // a much smaller delta detects cheaply.
            if (max_delta <= self.tolerance && iteration > 0) || max_delta <= self.tolerance * 1e-3
            {
                return Ok(NewtonSolve {
                    converged: true,
                    iterations: iteration + 1,
                });
            }
        }
        Ok(NewtonSolve {
            converged: false,
            iterations: self.max_newton_iterations,
        })
    }
}

/// Number of fixed steps covering `[0, t_end]` in strides of `dt`: the
/// smallest count whose penultimate time index stays strictly below
/// `t_end`, guarding against `ceil` rounding an exact ratio up and
/// producing a zero-length (or negative) final step.
///
/// The count is kept in `f64` until it is known to be at most
/// [`MAX_SAMPLES`], so no ratio can overflow or wrap the `usize` that sizes
/// the run's buffers.
fn fixed_step_count(dt: f64, t_end: f64) -> Result<usize, SolverError> {
    let mut steps = (t_end / dt).ceil().max(1.0);
    if steps > 1.0 && (steps - 1.0) * dt >= t_end {
        steps -= 1.0;
    }
    if steps > MAX_SAMPLES as f64 {
        return Err(too_many_steps(t_end));
    }
    Ok(steps as usize)
}

/// The error for a run over the [`MAX_SAMPLES`] step ceiling: `t_end` is
/// the parameter that asked for the steps.
fn too_many_steps(t_end: f64) -> SolverError {
    SolverError::TooManySteps {
        name: "t_end",
        value: t_end,
        limit: MAX_SAMPLES,
    }
}

/// Outcome of one Newton solve (the iterate itself stays in
/// [`Workspace::x`]).
struct NewtonSolve {
    converged: bool,
    iterations: usize,
}

/// Unknown-vector layout of a circuit: node voltages first, then one slot
/// per element branch current.
struct SystemLayout {
    node_count: usize,
    branch_offsets: Vec<usize>,
    n_unknowns: usize,
}

impl SystemLayout {
    fn of(circuit: &Circuit) -> Result<Self, SolverError> {
        let node_count = circuit.node_count();
        if circuit.element_count() == 0 {
            return Err(SolverError::InvalidCircuit {
                reason: "circuit has no elements".into(),
            });
        }
        let mut branch_offsets = Vec::with_capacity(circuit.element_count());
        let mut total_branches = 0usize;
        for element in circuit.elements() {
            branch_offsets.push(total_branches);
            total_branches += element.branch_count();
        }
        let n_unknowns = node_count - 1 + total_branches;
        if n_unknowns == 0 {
            return Err(SolverError::InvalidCircuit {
                reason: "circuit has no unknowns (only ground)".into(),
            });
        }
        Ok(Self {
            node_count,
            branch_offsets,
            n_unknowns,
        })
    }
}

/// Per-run scratch of the Newton loop, sized once for the system: the
/// assembled matrix (factorised in place), its right-hand side and pivots,
/// and the current and next iterate.
struct Workspace {
    matrix: Matrix,
    rhs: Vec<f64>,
    pivots: Vec<usize>,
    x: Vec<f64>,
    x_new: Vec<f64>,
}

impl Workspace {
    fn new(n: usize) -> Self {
        Self {
            matrix: Matrix::zeros(n, n),
            rhs: vec![0.0; n],
            pivots: Vec::with_capacity(n),
            x: vec![0.0; n],
            x_new: vec![0.0; n],
        }
    }
}

fn commit_elements(circuit: &mut Circuit, layout: &SystemLayout, x: &[f64], t_next: f64, h: f64) {
    for (element, &offset) in circuit
        .elements_mut()
        .iter_mut()
        .zip(&layout.branch_offsets)
    {
        let ctx = CommitContext {
            x,
            node_count: layout.node_count,
            branch_offset: offset,
            time: t_next,
            dt: h,
        };
        element.commit(&ctx);
    }
}

/// Solver statistics of a transient run — the cost / robustness numbers the
/// baseline-comparison experiments report.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct TransientStats {
    /// Total Newton iterations over all steps (including rejected steps).
    pub newton_iterations: usize,
    /// Total LU factorisations + solves.
    pub lu_solves: usize,
    /// Steps that hit the Newton iteration limit without converging.
    /// Both controllers accept such steps with the best iterate and count
    /// them here (shrinking the step raises a quantised core's companion
    /// gain and makes the corrector *less* likely to converge, so there is
    /// no convergence-driven retry); under adaptive stepping the LTE test
    /// still polices the iterate's quality, and non-convergence bars the
    /// next step from growing.
    pub non_converged_steps: usize,
    /// Steps accepted into the result trace.
    pub accepted_steps: usize,
    /// Steps rejected (and retried smaller) by the adaptive controller —
    /// always zero under fixed stepping.
    pub rejected_steps: usize,
}

/// Result of a transient run.
#[derive(Debug, Clone, PartialEq)]
pub struct TransientResult {
    times: Vec<f64>,
    /// One row of `n_unknowns` values per time point, row-major.
    solutions: Vec<f64>,
    n_unknowns: usize,
    node_count: usize,
    branch_offsets: Vec<usize>,
    stats: TransientStats,
    max_lte_estimate: Option<f64>,
}

impl TransientResult {
    /// The time points (starting at 0; the last one is exactly `t_end`).
    pub fn times(&self) -> &[f64] {
        &self.times
    }

    /// Number of time points.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// `true` when the result holds no samples (cannot happen for a
    /// successful run).
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// Solver statistics.
    pub fn stats(&self) -> TransientStats {
        self.stats
    }

    /// Largest local-truncation-error estimate over the accepted steps
    /// that passed the LTE test (normalised per unknown by `1 + |x|`,
    /// independent of the controller tolerances).  `None` for fixed-step
    /// runs, which do not estimate the LTE.  Excluded from the record:
    /// the start-up step (its "error" is the t = 0 source turn-on, not
    /// truncation) and noise-/floor-accepted steps, whose residual is a
    /// model discontinuity rather than truncation error — so this value
    /// tracks how tightly the controller met its tolerance where meeting
    /// it was possible, not a global error bound.
    pub fn max_lte_estimate(&self) -> Option<f64> {
        self.max_lte_estimate
    }

    /// Voltage series of a node.
    ///
    /// # Errors
    ///
    /// Returns [`SolverError::InvalidCircuit`] for an unknown node.
    pub fn voltage(&self, node: Node) -> Result<Vec<f64>, SolverError> {
        if node.0 >= self.node_count {
            return Err(SolverError::InvalidCircuit {
                reason: format!("unknown node {}", node.0),
            });
        }
        if node.is_ground() {
            return Ok(vec![0.0; self.times.len()]);
        }
        Ok(self.column(node.0 - 1))
    }

    /// Branch-current series of the element at `element_index` (as returned
    /// by [`Circuit::add`]); `local` selects the branch for elements with
    /// several.
    ///
    /// # Errors
    ///
    /// Returns [`SolverError::InvalidCircuit`] when the element index is out
    /// of range.
    pub fn branch_current(
        &self,
        element_index: usize,
        local: usize,
    ) -> Result<Vec<f64>, SolverError> {
        let offset =
            *self
                .branch_offsets
                .get(element_index)
                .ok_or_else(|| SolverError::InvalidCircuit {
                    reason: format!("unknown element index {element_index}"),
                })?;
        let idx = self.node_count - 1 + offset + local;
        Ok(self.column(idx))
    }

    /// The series of one unknown over every time point.
    fn column(&self, idx: usize) -> Vec<f64> {
        self.solutions
            .chunks_exact(self.n_unknowns)
            .map(|x| x[idx])
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::core_model::LinearCore;
    use crate::circuit::elements::{
        Capacitor, Inductor, NonlinearInductor, Resistor, VoltageSource,
    };
    use magnetics::constants::MU0;
    use waveform::generator::Constant;
    use waveform::sine::Sine;

    #[test]
    fn analysis_validation() {
        assert!(TransientAnalysis::new(0.0, 1.0).is_err());
        assert!(TransientAnalysis::new(1e-3, 0.0).is_err());
        assert!(TransientAnalysis::new(2.0, 1.0).is_err());
        assert!(TransientAnalysis::new(1e-3, 1.0).is_ok());
        assert!(TransientAnalysis::adaptive(
            AdaptiveOptions {
                initial_step: 0.0,
                ..AdaptiveOptions::default()
            },
            1.0
        )
        .is_err());
        assert!(TransientAnalysis::adaptive(
            AdaptiveOptions {
                max_step: 1e-16,
                ..AdaptiveOptions::default()
            },
            1.0
        )
        .is_err());
        assert!(TransientAnalysis::adaptive(
            AdaptiveOptions {
                abs_tol: 0.0,
                ..AdaptiveOptions::default()
            },
            1.0
        )
        .is_err());
        assert!(TransientAnalysis::adaptive(AdaptiveOptions::default(), 0.0).is_err());
        assert!(TransientAnalysis::adaptive(AdaptiveOptions::default(), 1e-3).is_ok());
    }

    #[test]
    fn empty_circuit_rejected() {
        let mut c = Circuit::new();
        let analysis = TransientAnalysis::new(1e-3, 1e-2).unwrap();
        assert!(analysis.run(&mut c).is_err());
    }

    fn divider() -> (Circuit, Node) {
        let mut c = Circuit::new();
        let vin = c.node();
        let vout = c.node();
        c.add("V1", VoltageSource::new(vin, Node::GROUND, Constant(10.0)))
            .unwrap();
        c.add("R1", Resistor::new(vin, vout, 1000.0).unwrap())
            .unwrap();
        c.add("R2", Resistor::new(vout, Node::GROUND, 1000.0).unwrap())
            .unwrap();
        (c, vout)
    }

    #[test]
    fn resistive_divider() {
        let (mut c, vout) = divider();
        let result = TransientAnalysis::new(1e-4, 1e-3)
            .unwrap()
            .run(&mut c)
            .unwrap();
        let v = result.voltage(vout).unwrap();
        assert!((v.last().unwrap() - 5.0).abs() < 1e-9);
        assert_eq!(result.voltage(Node::GROUND).unwrap().last().unwrap(), &0.0);
        assert!(result.voltage(Node(9)).is_err());
        assert!(!result.is_empty());
        assert!(result.stats().non_converged_steps == 0);
        assert_eq!(result.stats().accepted_steps, result.len() - 1);
        assert_eq!(result.stats().rejected_steps, 0);
        assert_eq!(result.max_lte_estimate(), None);
    }

    #[test]
    fn fixed_final_time_is_exact_even_when_dt_does_not_divide_t_end() {
        // 0.1 is not representable in binary: 10 accumulated additions end
        // at 0.9999999999999999, and 7 steps of 0.3 overshoot 2.0.  The
        // index-based grid must end exactly at t_end in both cases.
        for (dt, t_end) in [
            (0.1, 1.0),
            (0.3, 2.0),
            (1e-5, 1e-3),
            (2e-6, 2e-3),
            (7e-7, 1.3e-3),
        ] {
            let (mut c, _) = divider();
            let result = TransientAnalysis::new(dt, t_end)
                .unwrap()
                .run(&mut c)
                .unwrap();
            assert_eq!(
                *result.times().last().unwrap(),
                t_end,
                "dt = {dt}, t_end = {t_end}"
            );
            // And the time grid is strictly increasing: no zero-length or
            // negative final step from ceil() rounding.
            for pair in result.times().windows(2) {
                assert!(pair[1] > pair[0], "dt = {dt}: {pair:?}");
            }
        }
    }

    #[test]
    fn fixed_step_count_handles_ratio_rounding() {
        assert_eq!(fixed_step_count(0.1, 1.0), Ok(10));
        assert_eq!(fixed_step_count(0.3, 2.0), Ok(7));
        assert_eq!(fixed_step_count(1.0, 1.0), Ok(1));
        assert_eq!(fixed_step_count(1e-5, 1e-3), Ok(100));
        // 0.06 / 5e-5 = 1200 exactly in f64.
        assert_eq!(fixed_step_count(5e-5, 0.06), Ok(1200));
        // Exactly at the ceiling is allowed.
        assert_eq!(fixed_step_count(1.0, MAX_SAMPLES as f64), Ok(MAX_SAMPLES));
    }

    fn is_step_ceiling(err: &SolverError, t_end: f64) -> bool {
        *err == SolverError::TooManySteps {
            name: "t_end",
            value: t_end,
            limit: MAX_SAMPLES,
        }
    }

    #[test]
    fn fixed_drive_over_the_step_ceiling_is_refused_before_any_buffer() {
        // 1e18 steps would size buffers past any memory, and a ratio of
        // 1e600 is infinite in f64, past any `usize` count.
        for (dt, t_end) in [
            (1e-6, 1e12),
            (1e-300, 1e300),
            (1.0, MAX_SAMPLES as f64 + 1.0),
        ] {
            let err = TransientAnalysis::new(dt, t_end).unwrap_err();
            assert!(is_step_ceiling(&err, t_end), "{err}");
            assert!(err.to_string().contains("`t_end`"), "{err}");
            assert!(err.to_string().contains("16777216"), "{err}");
        }
        // Fields are public: a run whose `new` check was bypassed refuses
        // the same drive instead of sizing its buffers from it.
        let analysis = TransientAnalysis {
            t_end: 1e12,
            ..TransientAnalysis::new(1e-6, 1e-3).unwrap()
        };
        let (mut c, _) = divider();
        assert!(is_step_ceiling(&analysis.run(&mut c).unwrap_err(), 1e12));
    }

    #[test]
    fn adaptive_drive_needing_too_many_steps_is_refused() {
        let options = AdaptiveOptions {
            max_step: 1e-3,
            ..AdaptiveOptions::default()
        };
        // At max_step the controller needs at least t_end / max_step steps.
        let err = TransientAnalysis::adaptive(options, 1e6).unwrap_err();
        assert!(is_step_ceiling(&err, 1e6), "{err}");
        let at_ceiling = MAX_SAMPLES as f64 * options.max_step;
        assert!(TransientAnalysis::adaptive(options, at_ceiling).is_ok());
    }

    #[test]
    fn adaptive_run_stops_at_the_step_ceiling() {
        let analysis = TransientAnalysis::adaptive(AdaptiveOptions::default(), 1e-3).unwrap();
        let StepControl::Adaptive(options) = analysis.control else {
            unreachable!("built adaptive");
        };
        let (mut c, _) = divider();
        let layout = SystemLayout::of(&c).unwrap();
        let done = analysis
            .run_adaptive(&mut c, &layout, options, usize::MAX)
            .unwrap();
        let needed = done.stats().accepted_steps;
        assert!(needed > 2, "{needed} steps");
        // A ceiling of exactly the steps needed still finishes; one fewer
        // stops with the typed error.
        let (mut c, _) = divider();
        assert!(analysis
            .run_adaptive(&mut c, &layout, options, needed)
            .is_ok());
        let (mut c, _) = divider();
        let err = analysis
            .run_adaptive(&mut c, &layout, options, needed - 1)
            .unwrap_err();
        assert!(is_step_ceiling(&err, 1e-3), "{err}");
    }

    #[test]
    fn rc_charging_curve() {
        // 1V step into R = 1k, C = 1µF: tau = 1 ms.
        let mut c = Circuit::new();
        let vin = c.node();
        let vc = c.node();
        c.add("V1", VoltageSource::new(vin, Node::GROUND, Constant(1.0)))
            .unwrap();
        c.add("R1", Resistor::new(vin, vc, 1000.0).unwrap())
            .unwrap();
        c.add("C1", Capacitor::new(vc, Node::GROUND, 1e-6).unwrap())
            .unwrap();
        let result = TransientAnalysis::new(1e-5, 5e-3)
            .unwrap()
            .run(&mut c)
            .unwrap();
        let v = result.voltage(vc).unwrap();
        // After 5 tau the capacitor is essentially charged.
        assert!((v.last().unwrap() - 1.0).abs() < 0.01);
        // After 1 tau it should be ~63%.
        let idx_tau = (1e-3 / 1e-5) as usize;
        assert!((v[idx_tau] - 0.632).abs() < 0.02, "v(tau) = {}", v[idx_tau]);
    }

    #[test]
    fn adaptive_rc_matches_the_analytic_curve_with_fewer_steps() {
        let build = || {
            let mut c = Circuit::new();
            let vin = c.node();
            let vc = c.node();
            c.add("V1", VoltageSource::new(vin, Node::GROUND, Constant(1.0)))
                .unwrap();
            c.add("R1", Resistor::new(vin, vc, 1000.0).unwrap())
                .unwrap();
            c.add("C1", Capacitor::new(vc, Node::GROUND, 1e-6).unwrap())
                .unwrap();
            (c, vc)
        };

        let options = AdaptiveOptions {
            rel_tol: 8e-3,
            abs_tol: 1e-3,
            initial_step: 1e-7,
            min_step: 1e-12,
            max_step: 1e-3,
        };
        let (mut c, vc) = build();
        let adaptive = TransientAnalysis::adaptive(options, 5e-3)
            .unwrap()
            .run(&mut c)
            .unwrap();
        let (mut c_fixed, _) = build();
        let fixed = TransientAnalysis::new(1e-5, 5e-3)
            .unwrap()
            .run(&mut c_fixed)
            .unwrap();

        // The adaptive grid ends exactly at t_end too.
        assert_eq!(*adaptive.times().last().unwrap(), 5e-3);
        // Accuracy against the analytic RC charging curve at every accepted
        // time point.
        let v = adaptive.voltage(vc).unwrap();
        let worst = adaptive
            .times()
            .iter()
            .zip(&v)
            .map(|(&t, &v)| (v - (1.0 - (-t / 1e-3_f64).exp())).abs())
            .fold(0.0_f64, f64::max);
        // The 500-step fixed run's backward-Euler global error on this
        // circuit is ~5e-3; the adaptive run must be no worse.
        assert!(worst < 8e-3, "worst analytic error {worst}");
        // Fewer accepted steps than the 500-step fixed run; growth toward
        // max_step in the settled tail is the win.
        assert!(
            adaptive.stats().accepted_steps < fixed.stats().accepted_steps / 2,
            "adaptive {} vs fixed {}",
            adaptive.stats().accepted_steps,
            fixed.stats().accepted_steps
        );
        assert!(adaptive.max_lte_estimate().unwrap() > 0.0);
        assert_eq!(adaptive.stats().non_converged_steps, 0);
    }

    #[test]
    fn adaptive_concentrates_steps_where_the_solution_moves() {
        // A sine-driven RC: steps should bunch around the fast slews and
        // stretch near the crests.  Compare the shortest and longest
        // accepted step after the start-up phase.
        let mut c = Circuit::new();
        let vin = c.node();
        let vc = c.node();
        c.add(
            "V1",
            VoltageSource::new(vin, Node::GROUND, Sine::new(1.0, 50.0).unwrap()),
        )
        .unwrap();
        c.add("R1", Resistor::new(vin, vc, 1000.0).unwrap())
            .unwrap();
        c.add("C1", Capacitor::new(vc, Node::GROUND, 1e-6).unwrap())
            .unwrap();
        let options = AdaptiveOptions {
            rel_tol: 1e-3,
            abs_tol: 1e-6,
            initial_step: 1e-6,
            min_step: 1e-12,
            max_step: 2e-3,
        };
        let result = TransientAnalysis::adaptive(options, 0.04)
            .unwrap()
            .run(&mut c)
            .unwrap();
        let steps: Vec<f64> = result.times().windows(2).map(|w| w[1] - w[0]).collect();
        let tail = &steps[steps.len() / 4..];
        let min = tail.iter().copied().fold(f64::INFINITY, f64::min);
        let max = tail.iter().copied().fold(0.0_f64, f64::max);
        assert!(
            max / min > 3.0,
            "steps should vary with the waveform: min {min}, max {max}"
        );
    }

    #[test]
    fn rl_current_rise() {
        // 1V step into R = 10 Ω in series with L = 10 mH: i -> 0.1 A,
        // tau = 1 ms.
        let mut c = Circuit::new();
        let vin = c.node();
        let vl = c.node();
        c.add("V1", VoltageSource::new(vin, Node::GROUND, Constant(1.0)))
            .unwrap();
        c.add("R1", Resistor::new(vin, vl, 10.0).unwrap()).unwrap();
        let l_index = c
            .add("L1", Inductor::new(vl, Node::GROUND, 10e-3).unwrap())
            .unwrap();
        let result = TransientAnalysis::new(1e-5, 6e-3)
            .unwrap()
            .run(&mut c)
            .unwrap();
        let i = result.branch_current(l_index, 0).unwrap();
        assert!(
            (i.last().unwrap() - 0.1).abs() < 2e-3,
            "i_end = {}",
            i.last().unwrap()
        );
        assert!(result.branch_current(99, 0).is_err());
    }

    #[test]
    fn nonlinear_inductor_with_linear_core_matches_linear_inductor() {
        // A linear core of mu_r makes the wound core equivalent to
        // L = mu0 * mu_r * N^2 * A / l.
        let turns = 100.0;
        let area = 1e-4;
        let path = 0.1;
        let mu_r = 1000.0;
        let l_equiv = MU0 * mu_r * turns * turns * area / path;

        let build = |use_nonlinear: bool| -> (Vec<f64>, usize) {
            let mut c = Circuit::new();
            let vin = c.node();
            let vl = c.node();
            c.add("V1", VoltageSource::new(vin, Node::GROUND, Constant(1.0)))
                .unwrap();
            c.add("R1", Resistor::new(vin, vl, 50.0).unwrap()).unwrap();
            let idx = if use_nonlinear {
                c.add(
                    "NL",
                    NonlinearInductor::new(
                        vl,
                        Node::GROUND,
                        turns,
                        area,
                        path,
                        LinearCore::new(mu_r),
                    )
                    .unwrap(),
                )
                .unwrap()
            } else {
                c.add("L1", Inductor::new(vl, Node::GROUND, l_equiv).unwrap())
                    .unwrap()
            };
            let result = TransientAnalysis::new(2e-6, 2e-3)
                .unwrap()
                .run(&mut c)
                .unwrap();
            (result.branch_current(idx, 0).unwrap(), result.len())
        };

        let (i_nl, n1) = build(true);
        let (i_lin, n2) = build(false);
        assert_eq!(n1, n2);
        let max_diff = i_nl
            .iter()
            .zip(&i_lin)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max);
        assert!(max_diff < 1e-4, "max difference {max_diff}");
    }

    #[test]
    fn singular_circuit_reported() {
        // A node allocated but never connected leaves a zero row/column in
        // the MNA matrix — the factorisation must report it.
        let mut c = Circuit::new();
        let n1 = c.node();
        let _n_floating = c.node(); // allocated but never connected
        c.add("V1", VoltageSource::new(n1, Node::GROUND, Constant(1.0)))
            .unwrap();
        c.add("R1", Resistor::new(n1, Node::GROUND, 100.0).unwrap())
            .unwrap();
        let analysis = TransientAnalysis::new(1e-4, 1e-3).unwrap();
        let result = analysis.run(&mut c);
        assert!(matches!(result, Err(SolverError::SingularMatrix { .. })));
    }
}
