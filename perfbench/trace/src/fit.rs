//! The fit library: loads the measured loops as `ja fit --config` does and
//! replays the lockstep multi-start descent with every
//! `BatchObjective::costs` call in its own span.

use std::path::Path;
use std::time::Duration;

use hdl_models::fit::{FitJob, FitReport, LoopFit, StartFit};
use hdl_models::report::fit_report_value;
use ja_hysteresis::error::JaError;
use ja_hysteresis::fitting::{
    starting_points, BatchObjective, CoordinateDescent, FitOptions, FitResult,
};
use magnetics::bh::BhCurve;
use magnetics::loop_analysis::loop_metrics;
use magnetics::material::JaParameters;
use magnetics::units::Magnetisation;
use waveform::export::read_csv;

use crate::recorder::Recorder;

/// One measured-loop CSV (columns `h`, `b`) as a fit job named after the
/// file stem.
pub fn load_job(path: &Path) -> FitJob {
    let text = std::fs::read_to_string(path).expect("readable loop CSV");
    let trace = read_csv(&text).expect("well-formed loop CSV");
    let (h, b) = (
        trace.column("h").expect("h column"),
        trace.column("b").expect("b column"),
    );
    let mut curve = BhCurve::with_capacity(h.len());
    for (&h, &b) in h.iter().zip(b) {
        curve.push_raw(h, b, 0.0);
    }
    let name = path
        .file_stem()
        .expect("file name")
        .to_string_lossy()
        .into_owned();
    FitJob::with_auto_peak(name, curve)
}

/// Work counters of the fitting layer.
#[derive(Debug, Default)]
pub struct FitWork {
    pub evaluations: u64,
    pub cost_calls: u64,
    pub lane_samples: u64,
}

/// The coordinate perturbation of `ja_hysteresis::fitting` (private there).
fn perturb(params: &JaParameters, coordinate: usize, factor: f64) -> Result<JaParameters, JaError> {
    let mut p = *params;
    match coordinate {
        0 => p.m_sat = Magnetisation::new(p.m_sat.value() * factor),
        1 => {
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

/// `CoordinateDescent::optimize_batch`, step for step, with the cost calls
/// traced.
fn descend(
    optimizer: &CoordinateDescent,
    objective: &mut BatchObjective,
    starts: &[JaParameters],
    rec: &mut Recorder,
    work: &mut FitWork,
    samples_per_eval: u64,
) -> Vec<Result<FitResult, JaError>> {
    let mut call =
        |objective: &mut BatchObjective, candidates: &[JaParameters], rec: &mut Recorder| {
            work.cost_calls += 1;
            work.evaluations += candidates.len() as u64;
            work.lane_samples += candidates.len() as u64 * samples_per_eval;
            rec.time("fit.costs", || objective.costs(candidates).to_vec())
        };
    let mut lanes: Vec<Result<(JaParameters, f64, usize), JaError>> = starts
        .iter()
        .zip(call(objective, starts, rec))
        .map(|(start, cost)| cost.map(|cost| (*start, cost, 1)))
        .collect();
    let mut step = optimizer.initial_step;
    for _ in 0..optimizer.passes {
        for coordinate in 0..5 {
            for factor in [1.0 + step, 1.0 / (1.0 + step)] {
                let mut candidates = Vec::new();
                let mut owners = Vec::new();
                for (index, lane) in lanes.iter().enumerate() {
                    let Ok((best, _, _)) = lane else { continue };
                    let Ok(candidate) = perturb(best, coordinate, factor) else {
                        continue;
                    };
                    if candidate == *best {
                        continue;
                    }
                    candidates.push(candidate);
                    owners.push(index);
                }
                if candidates.is_empty() {
                    continue;
                }
                let costs = call(objective, &candidates, rec);
                for ((&index, candidate), cost) in owners.iter().zip(&candidates).zip(costs) {
                    let (best, best_cost, evaluations) =
                        lanes[index].as_mut().expect("only live lanes propose");
                    *evaluations += 1;
                    if let Ok(cost) = cost {
                        if cost < *best_cost {
                            *best_cost = cost;
                            *best = *candidate;
                        }
                    }
                }
            }
        }
        step *= optimizer.shrink;
    }
    lanes
        .into_iter()
        .map(|lane| {
            lane.map(|(params, cost, evaluations)| FitResult {
                params,
                cost,
                evaluations,
            })
        })
        .collect()
}

/// Replays `fit_batch` under lockstep routing and returns the report it
/// would have produced.
pub fn replay(
    jobs: &[FitJob],
    starts: usize,
    seed: u64,
    options: &FitOptions,
    rec: &mut Recorder,
    work: &mut FitWork,
) -> FitReport {
    let optimizer = CoordinateDescent::from_options(options);
    let mut loops = Vec::new();
    for (index, job) in jobs.iter().enumerate() {
        rec.enter("fit.starting_points");
        let target = loop_metrics(&job.measured).expect("measured loops close");
        let loop_seed = seed.wrapping_add((index as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let points = starting_points(&target, starts, loop_seed).expect("valid starting points");
        rec.exit();
        rec.enter("fit.descent");
        let mut objective =
            BatchObjective::from_target(target, job.h_peak, options).expect("valid fit options");
        let samples_per_eval =
            waveform::schedule::FieldSchedule::major_loop(job.h_peak, options.sweep_step, 2)
                .expect("valid sweep")
                .len() as u64;
        let results = descend(
            &optimizer,
            &mut objective,
            &points,
            rec,
            work,
            samples_per_eval,
        );
        rec.exit();
        let entries: Vec<StartFit> = points
            .iter()
            .zip(results)
            .map(|(start, result)| StartFit {
                start: *start,
                evaluations: result.as_ref().map_or(1, |fit| fit.evaluations),
                result,
                wall_clock: Duration::ZERO,
            })
            .collect();
        let best = entries
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.result.as_ref().ok().map(|r| (i, r.cost)))
            .min_by(|(_, a), (_, b)| a.total_cmp(b))
            .map(|(i, _)| i);
        loops.push(LoopFit {
            name: job.name.clone(),
            input_samples: job.measured.len(),
            h_peak: job.h_peak,
            measured: target,
            starts: entries,
            best,
        });
    }
    FitReport {
        loops,
        starts,
        seed,
        workers: 1,
        elapsed: Duration::ZERO,
        lockstep_lanes: Some(starts),
    }
}

pub fn render(report: &FitReport, rec: &mut Recorder) -> String {
    rec.time("report.render", || {
        fit_report_value(report, false).to_pretty_string()
    })
}
