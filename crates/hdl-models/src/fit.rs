//! Multi-start parallel parameter fitting — parameter extraction as a
//! batch workload.
//!
//! A single coordinate-descent fit ([`ja_hysteresis::fitting`]) is a local
//! search: it lands in whatever minimum the physically motivated initial
//! guess sits in.  [`fit_batch`] runs the same search from many seeded,
//! deterministic starting points ([`starting_points`]) — and over many
//! measured loops at once — one task per loop on the worker pool of
//! [`crate::exec::parallel_map`], then keeps the best result per loop.
//!
//! * **One descent per loop.**  All of a loop's starts descend together
//!   through [`CoordinateDescent::optimize_batch`], and each cost call
//!   evaluates the slot's live candidates at once.  Under the default
//!   [`SoaRouting::Auto`], a loop with two or more starts evaluates them as
//!   lanes of one structure-of-arrays sweep; otherwise every candidate runs
//!   through the scalar model, the reference.  The `f64` lanes are
//!   bit-identical to it, so routing never changes the report — only the
//!   throughput (asserted scalar-vs-SoA byte-identical by
//!   `tests/fit_determinism.rs`).
//! * **Determinism.**  Starting points are derived from `(seed, loop
//!   index)` before any thread spawns, every start is a pure function of
//!   its parameters, and results come back in (loop, start) order — a
//!   [`FitReport`] serialises byte-identically for any worker count
//!   (asserted at 1/2/8 workers by `tests/fit_determinism.rs`).

use std::time::{Duration, Instant};

use ja_hysteresis::error::JaError;
use ja_hysteresis::fitting::{
    starting_points, BatchObjective, CoordinateDescent, FitOptions, FitResult,
};
use magnetics::bh::BhCurve;
use magnetics::loop_analysis::{loop_metrics, LoopMetrics};
use magnetics::material::JaParameters;

use crate::exec::{parallel_map, SoaRouting};

/// Options of a multi-start fit batch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MultiStartOptions {
    /// Number of starting points per measured loop (start 0 is the
    /// deterministic initial guess, the rest are seeded latin-hypercube
    /// perturbations).
    pub starts: usize,
    /// Seed of the starting-point stream.  The same `(seed, loop index)`
    /// always generates the same starts, so reports are reproducible.
    pub seed: u64,
    /// Worker threads; `0` means one per available core.  The worker count
    /// never changes the results, only the wall-clock.
    pub workers: usize,
    /// The per-start local-search options.
    pub fit: FitOptions,
    /// How candidates are evaluated (see [`SoaRouting::lockstep`]).  Under
    /// the default [`SoaRouting::Auto`], a loop with two or more starts
    /// evaluates each slot's live candidates as lanes of one
    /// structure-of-arrays sweep, with results bit-identical to the scalar
    /// model.  [`SoaRouting::ForceScalar`] runs every candidate through the
    /// scalar model, the reference; [`SoaRouting::ForceSoa`] uses lanes
    /// even for a single start.
    pub routing: SoaRouting,
}

impl Default for MultiStartOptions {
    fn default() -> Self {
        Self {
            starts: 8,
            seed: 42,
            workers: 0,
            fit: FitOptions::default(),
            routing: SoaRouting::Auto,
        }
    }
}

impl MultiStartOptions {
    /// Validates the options.
    ///
    /// # Errors
    ///
    /// Returns [`JaError::InvalidConfig`] for `starts == 0`, a seed beyond
    /// `i64::MAX` (the versioned report serialises the seed as a JSON
    /// integer, so larger seeds could not be recorded faithfully), or
    /// invalid local-search options.
    pub fn validate(&self) -> Result<(), JaError> {
        if self.starts == 0 {
            return Err(JaError::InvalidConfig {
                name: "starts",
                value: 0.0,
                requirement: ">= 1 starting point",
            });
        }
        if i64::try_from(self.seed).is_err() {
            return Err(JaError::InvalidConfig {
                name: "seed",
                value: self.seed as f64,
                requirement: "<= i64::MAX (reports record the seed as a JSON integer)",
            });
        }
        self.fit.validate()
    }
}

/// One measured loop to fit.
#[derive(Debug, Clone)]
pub struct FitJob {
    /// Display name (used in fit reports; typically the input file stem or
    /// the material name).
    pub name: String,
    /// The measured BH loop.
    pub measured: BhCurve,
    /// Peak field of the measurement (A/m), used to regenerate candidate
    /// loops.
    pub h_peak: f64,
}

impl FitJob {
    /// Creates a job with an explicit peak field.
    pub fn new(name: impl Into<String>, measured: BhCurve, h_peak: f64) -> Self {
        Self {
            name: name.into(),
            measured,
            h_peak,
        }
    }

    /// Creates a job whose peak field is the measurement's own max |H|.
    pub fn with_auto_peak(name: impl Into<String>, measured: BhCurve) -> Self {
        let h_peak = measured
            .points()
            .iter()
            .fold(0.0_f64, |acc, p| acc.max(p.h.value().abs()));
        Self::new(name, measured, h_peak)
    }
}

/// The outcome of one starting point.
#[derive(Debug, Clone)]
pub struct StartFit {
    /// The starting parameter set the local search departed from.
    pub start: JaParameters,
    /// The refined result, or the error that stopped this start (other
    /// starts are unaffected — collect-all semantics, like scenario
    /// batches).
    pub result: Result<FitResult, JaError>,
    /// Objective evaluations this start consumed — also counted when the
    /// start failed (a failing evaluation still simulates), so the
    /// report's totals reflect the work actually done.
    pub evaluations: usize,
    /// This start's equal share of its loop's wall-clock time on the
    /// worker (a loop's starts descend together).
    pub wall_clock: Duration,
}

/// All starts of one measured loop, plus the best-of selection.
#[derive(Debug, Clone)]
pub struct LoopFit {
    /// Name of the fitted loop (from [`FitJob::name`]).
    pub name: String,
    /// Number of samples in the measured input.
    pub input_samples: usize,
    /// Peak field of the measurement (A/m).
    pub h_peak: f64,
    /// The measured loop metrics the fit matched.
    pub measured: LoopMetrics,
    /// One entry per starting point, in start order.
    pub starts: Vec<StartFit>,
    /// Index into [`starts`](Self::starts) of the lowest-cost successful
    /// start (first wins on exact ties); `None` when every start failed.
    pub best: Option<usize>,
}

impl LoopFit {
    /// The best start's fit result, if any start succeeded.
    pub fn best_fit(&self) -> Option<&FitResult> {
        self.starts[self.best?].result.as_ref().ok()
    }

    /// Total objective evaluations across all starts, failed ones
    /// included.
    pub fn evaluations(&self) -> usize {
        self.starts.iter().map(|s| s.evaluations).sum()
    }
}

/// Report of a multi-start fit batch.
#[derive(Debug, Clone)]
pub struct FitReport {
    /// One entry per measured loop, in input order.
    pub loops: Vec<LoopFit>,
    /// Starting points per loop.
    pub starts: usize,
    /// Seed of the starting-point stream.
    pub seed: u64,
    /// Number of worker threads the batch ran on.
    pub workers: usize,
    /// Wall-clock time of the whole batch.
    pub elapsed: Duration,
    /// `Some(lane count per loop)` when the batch ran through the
    /// structure-of-arrays lockstep path, `None` for the scalar path.
    /// Routing never changes result content (the `f64` lanes are
    /// bit-identical to scalar evaluation), so this is reported only in
    /// the opt-in timing block.
    pub lockstep_lanes: Option<usize>,
}

impl FitReport {
    /// Total per-start wall-clock across all loops — the time a
    /// single-worker run would have spent fitting.
    pub fn serial_runtime(&self) -> Duration {
        self.loops
            .iter()
            .flat_map(|l| &l.starts)
            .map(|s| s.wall_clock)
            .sum()
    }

    /// Aggregate speedup estimate: [`serial_runtime`](Self::serial_runtime)
    /// over [`elapsed`](Self::elapsed) (0 when the batch was empty or too
    /// fast to measure).
    pub fn speedup(&self) -> f64 {
        crate::exec::speedup_estimate(self.serial_runtime(), self.elapsed)
    }
}

/// Fits every measured loop with `options.starts` seeded starting points
/// and keeps the best result per loop.
///
/// Each loop is one task on the worker pool: its starts descend together
/// through [`CoordinateDescent::optimize_batch`] on one [`BatchObjective`],
/// whose evaluator `options.routing` picks (see
/// [`MultiStartOptions::routing`]).  Each start's `wall_clock` is an equal
/// share of its loop's task.
///
/// # Errors
///
/// Returns [`JaError::EmptyGrid`] for an empty job list,
/// [`JaError::InvalidConfig`] for invalid options, and
/// [`JaError::Material`] when a measured input is not a closed loop — all
/// detected up front, before any worker spawns.  Failures of individual
/// *starts* are recorded in the report instead (collect-all semantics).
pub fn fit_batch(jobs: Vec<FitJob>, options: &MultiStartOptions) -> Result<FitReport, JaError> {
    options.validate()?;
    if jobs.is_empty() {
        return Err(JaError::EmptyGrid { axis: "loops" });
    }

    // Up-front, per loop: target metrics (the fatal input check) and the
    // deterministic starting points.  Seeds are decorrelated per loop so a
    // library fit does not reuse one loop's perturbations for the next.
    let mut targets = Vec::with_capacity(jobs.len());
    let mut loop_starts: Vec<Vec<JaParameters>> = Vec::with_capacity(jobs.len());
    for (index, job) in jobs.iter().enumerate() {
        let target = loop_metrics(&job.measured)?;
        let seed = options
            .seed
            .wrapping_add((index as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        loop_starts.push(starting_points(&target, options.starts, seed)?);
        targets.push(target);
    }

    let lockstep = options.routing.lockstep(options.starts);
    // The report's worker count is resolved against the start count, so it
    // does not depend on routing; the pool itself runs one task per loop.
    let workers = crate::exec::resolved_workers(options.workers, jobs.len() * options.starts);
    let optimizer = CoordinateDescent::from_options(&options.fit);
    let started = Instant::now();
    let tasks: Vec<usize> = (0..jobs.len()).collect();
    let per_loop = parallel_map(&tasks, workers.min(jobs.len()), |&job| {
        let starts = &loop_starts[job];
        let t0 = Instant::now();
        let (target, h_peak) = (targets[job], jobs[job].h_peak);
        let objective = if lockstep {
            BatchObjective::from_target(target, h_peak, &options.fit)
        } else {
            BatchObjective::scalar(target, h_peak, &options.fit)
        };
        let (results, built) = match objective {
            Ok(mut objective) => (optimizer.optimize_batch(&mut objective, starts), true),
            Err(err) => (starts.iter().map(|_| Err(err.clone())).collect(), false),
        };
        let share = t0.elapsed() / starts.len() as u32;
        starts
            .iter()
            .zip(results)
            .map(|(start, result)| StartFit {
                start: *start,
                // A start that failed its initial evaluation consumed
                // exactly one evaluation; a loop whose objective never
                // built consumed none.
                evaluations: match &result {
                    Ok(fit) => fit.evaluations,
                    Err(_) => usize::from(built),
                },
                result,
                wall_clock: share,
            })
            .collect::<Vec<_>>()
    });
    let elapsed = started.elapsed();

    let loops = jobs
        .into_iter()
        .zip(targets)
        .zip(per_loop)
        .map(|((job, measured), starts)| {
            let best = starts
                .iter()
                .enumerate()
                .filter_map(|(i, s)| s.result.as_ref().ok().map(|r| (i, r.cost)))
                .min_by(|(_, a), (_, b)| a.total_cmp(b))
                .map(|(i, _)| i);
            LoopFit {
                name: job.name,
                input_samples: job.measured.len(),
                h_peak: job.h_peak,
                measured,
                starts,
                best,
            }
        })
        .collect();

    Ok(FitReport {
        loops,
        starts: options.starts,
        seed: options.seed,
        workers,
        elapsed,
        lockstep_lanes: lockstep.then_some(options.starts),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ja_hysteresis::backend::HysteresisBackend;
    use ja_hysteresis::model::JilesAtherton;
    use waveform::schedule::FieldSchedule;

    fn measured_loop(params: JaParameters, step: f64) -> BhCurve {
        let mut model = JilesAtherton::new(params).unwrap();
        let schedule = FieldSchedule::major_loop(10_000.0, step, 2).unwrap();
        model.run_samples(&schedule.to_samples()).unwrap()
    }

    fn quick_options(starts: usize, workers: usize) -> MultiStartOptions {
        MultiStartOptions {
            starts,
            workers,
            fit: FitOptions {
                passes: 2,
                sweep_step: 250.0,
                ..FitOptions::default()
            },
            ..MultiStartOptions::default()
        }
    }

    #[test]
    fn best_of_multi_start_is_no_worse_than_the_single_start() {
        let measured = measured_loop(JaParameters::date2006(), 100.0);
        let job = || FitJob::with_auto_peak("date2006", measured.clone());
        assert_eq!(job().h_peak, 10_000.0);

        let single = fit_batch(vec![job()], &quick_options(1, 1)).unwrap();
        let multi = fit_batch(vec![job()], &quick_options(6, 0)).unwrap();
        let single_best = single.loops[0].best_fit().unwrap();
        let multi_best = multi.loops[0].best_fit().unwrap();
        // Start 0 of the multi-start run IS the single-start run, so
        // best-of can only improve on it.
        let start0 = multi.loops[0].starts[0].result.as_ref().unwrap();
        assert_eq!(start0.cost.to_bits(), single_best.cost.to_bits());
        assert!(multi_best.cost <= single_best.cost);
        assert_eq!(multi.loops[0].starts.len(), 6);
        assert!(multi.loops[0].evaluations() > single.loops[0].evaluations());
        assert_eq!(multi.starts, 6);
        assert!(multi.serial_runtime() >= Duration::ZERO);
        assert!(multi.speedup() >= 0.0);
    }

    #[test]
    fn results_are_bitwise_identical_across_worker_counts() {
        let jobs = || {
            vec![
                FitJob::with_auto_peak("date2006", measured_loop(JaParameters::date2006(), 250.0)),
                FitJob::with_auto_peak(
                    "hard-steel",
                    measured_loop(JaParameters::hard_steel(), 250.0),
                ),
            ]
        };
        let serial = fit_batch(jobs(), &quick_options(4, 1)).unwrap();
        let parallel = fit_batch(jobs(), &quick_options(4, 8)).unwrap();
        assert_eq!(serial.workers, 1);
        assert_eq!(serial.loops.len(), 2);
        for (a, b) in serial.loops.iter().zip(&parallel.loops) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.best, b.best);
            for (x, y) in a.starts.iter().zip(&b.starts) {
                assert_eq!(x.start, y.start);
                let (rx, ry) = (x.result.as_ref().unwrap(), y.result.as_ref().unwrap());
                assert_eq!(rx.cost.to_bits(), ry.cost.to_bits());
                assert_eq!(rx.params, ry.params);
                assert_eq!(rx.evaluations, ry.evaluations);
            }
        }
        // The two loops got different perturbed starts (decorrelated seeds).
        assert_ne!(
            serial.loops[0].starts[1].start,
            serial.loops[1].starts[1].start
        );
    }

    #[test]
    fn invalid_inputs_fail_before_any_fitting() {
        let err = fit_batch(Vec::new(), &MultiStartOptions::default()).unwrap_err();
        assert!(matches!(err, JaError::EmptyGrid { axis: "loops" }));

        let options = MultiStartOptions {
            starts: 0,
            ..MultiStartOptions::default()
        };
        let job = FitJob::with_auto_peak("x", measured_loop(JaParameters::date2006(), 250.0));
        let err = fit_batch(vec![job], &options).unwrap_err();
        assert!(matches!(err, JaError::InvalidConfig { name: "starts", .. }));

        // A non-loop input is fatal for the whole batch, up front.
        let mut ramp = BhCurve::new();
        for i in 0..100 {
            ramp.push_raw(i as f64 * 10.0, (i as f64 / 50.0).tanh(), 0.0);
        }
        let err = fit_batch(
            vec![FitJob::with_auto_peak("ramp", ramp)],
            &quick_options(2, 1),
        )
        .unwrap_err();
        assert!(matches!(err, JaError::Material(_)));
    }
}
