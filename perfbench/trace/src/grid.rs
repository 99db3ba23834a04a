//! Scenario grids: built from the benchmark's JSON spec exactly as `ja
//! batch` builds them from the equivalent grid config, and replayed layer
//! by layer with the routing `BatchRunner::run` applies under auto routing.

use std::time::Duration;

use hdl_models::report::{batch_report_value, ndjson_manifest, ndjson_record};
use hdl_models::scenario::{
    BackendKind, BatchEntry, BatchReport, CircuitExcitation, Excitation, OperatingPoint, Scenario,
    ScenarioGrid, ScenarioOutcome, SourceWaveform, StepControl,
};
use ja_hysteresis::backend::HysteresisBackend;
use ja_hysteresis::config::JaConfig;
use ja_hysteresis::error::JaError;
use ja_hysteresis::json::{JsonValue, StreamDigest};
use ja_hysteresis::soa::{SoaBatch, SoaPrecision};
use magnetics::bh::BhCurve;
use magnetics::geometry::CoreGeometry;
use magnetics::loop_analysis::loop_metrics;
use magnetics::losses::{core_loss, LaminationSpec};
use magnetics::material::JaParameters;
use magnetics::thermal::ThermalCoefficients;

use crate::recorder::Recorder;
use crate::spec::{field, num, opt_num, strings, text};

fn material(name: &str) -> (JaParameters, ThermalCoefficients) {
    match name {
        "date2006" => (JaParameters::date2006(), ThermalCoefficients::date2006()),
        "ja1984" => (
            JaParameters::jiles_atherton_1984(),
            ThermalCoefficients::jiles_atherton_1984(),
        ),
        "soft-ferrite" => (
            JaParameters::soft_ferrite(),
            ThermalCoefficients::soft_ferrite(),
        ),
        "hard-steel" => (
            JaParameters::hard_steel(),
            ThermalCoefficients::hard_steel(),
        ),
        other => panic!("unknown material `{other}` in the benchmark spec"),
    }
}

fn backend(name: &str) -> BackendKind {
    match name {
        "direct" => BackendKind::DirectTimeless,
        "systemc" => BackendKind::SystemC,
        "ams" => BackendKind::AmsTimeless,
        "time-domain" => BackendKind::TimeDomainBaseline,
        other => panic!("unknown backend `{other}` in the benchmark spec"),
    }
}

/// One excitation and its scenario-key name, spelled as `ja`'s grid-config
/// parser spells it.
fn excitation(spec: &JsonValue) -> (String, Excitation) {
    match text(spec, "kind") {
        "major" => {
            let (peak, step) = (num(spec, "peak"), num(spec, "step"));
            let cycles = num(spec, "cycles") as usize;
            (
                format!("major(peak={peak},step={step},cycles={cycles})"),
                Excitation::major_loop(peak, step, cycles).expect("valid major loop"),
            )
        }
        "biased" => {
            let (bias, amplitude, step) =
                (num(spec, "bias"), num(spec, "amplitude"), num(spec, "step"));
            let cycles = num(spec, "cycles") as usize;
            (
                format!("biased(bias={bias},amplitude={amplitude},cycles={cycles},step={step})"),
                Excitation::biased_minor_loop(bias, amplitude, cycles, step)
                    .expect("valid biased loop"),
            )
        }
        "circuit" => circuit(spec),
        other => panic!("unsupported excitation kind `{other}` in the benchmark spec"),
    }
}

fn circuit(spec: &JsonValue) -> (String, Excitation) {
    let (amplitude, frequency) = (num(spec, "amplitude"), num(spec, "frequency"));
    let source = match text(spec, "source") {
        "sine" => SourceWaveform::Sine {
            amplitude,
            frequency,
        },
        "pwm" => SourceWaveform::Pwm {
            amplitude,
            frequency,
            duty: num(spec, "duty"),
        },
        other => panic!("unsupported circuit source `{other}` in the benchmark spec"),
    };
    let (r, turns, area, path, t_end) = (
        num(spec, "r"),
        num(spec, "turns"),
        num(spec, "area"),
        num(spec, "path"),
        num(spec, "t_end"),
    );
    let dt = opt_num(spec, "dt");
    let mut circuit = CircuitExcitation::new(
        source,
        r,
        turns,
        area,
        path,
        t_end,
        dt.unwrap_or(CircuitExcitation::inrush().dt),
    )
    .expect("valid circuit");
    let control = if text(spec, "control") == "adaptive" {
        let mut options = CircuitExcitation::adaptive_defaults();
        if let Some(dt) = dt {
            options.initial_step = dt;
        }
        circuit = circuit.with_step_control(StepControl::Adaptive(options));
        format!(
            "adaptive(rel={},abs={},max={},init={})",
            options.rel_tol, options.abs_tol, options.max_step, options.initial_step
        )
    } else {
        format!("fixed(dt={})", circuit.dt)
    };
    let source_name = match source.duty() {
        Some(duty) => format!("pwm(amplitude={amplitude},frequency={frequency},duty={duty})"),
        None => format!(
            "{}(amplitude={amplitude},frequency={frequency})",
            source.label()
        ),
    };
    (
        format!(
            "circuit({source_name},r={r},turns={turns},area={area},path={path},t_end={t_end},{control})"
        ),
        Excitation::Circuit(circuit),
    )
}

/// The grid a spec describes.
pub fn build_grid(spec: &JsonValue) -> ScenarioGrid {
    let mut grid = ScenarioGrid::new();
    for name in strings(spec, "materials") {
        let (params, thermal) = material(&name);
        grid = grid.material_with_thermal(name, params, thermal);
    }
    for name in strings(spec, "backends") {
        grid = grid.backend(backend(&name));
    }
    for dh_max in field(spec, "dh_max").as_array().expect("dh_max array") {
        let dh_max = dh_max.as_f64().expect("numeric dh_max");
        grid = grid.config(
            format!("dh{dh_max}"),
            JaConfig::default().with_dh_max(dh_max),
        );
    }
    for spec in field(spec, "excitations")
        .as_array()
        .expect("excitation array")
    {
        let (name, excitation) = excitation(spec);
        grid = grid.excitation(name, excitation);
    }
    let mut base = OperatingPoint::new();
    let geometry = spec
        .get("geometry")
        .filter(|g| !matches!(g, JsonValue::Null));
    if let Some(geometry) = geometry {
        base = base.with_geometry(
            CoreGeometry::new(num(geometry, "area"), num(geometry, "path"))
                .expect("valid geometry"),
        );
        if let Some(frequency) = opt_num(geometry, "frequency") {
            base = base.with_frequency(frequency);
        }
        if geometry.get("lamination").is_some() {
            base = base.with_lamination(LaminationSpec::silicon_steel_0p35mm());
        }
    }
    let temperatures: Vec<f64> = spec
        .get("temperatures")
        .and_then(JsonValue::as_array)
        .unwrap_or(&[])
        .iter()
        .map(|t| t.as_f64().expect("numeric temperature"))
        .collect();
    if temperatures.is_empty() {
        if geometry.is_some() {
            grid = grid.operating_point("geom", base);
        }
    } else {
        for t_c in temperatures {
            grid = grid.operating_point(format!("t{t_c}"), base.with_temperature(t_c));
        }
    }
    grid
}

/// Deterministic work the replay did, summed over every grid replayed.
#[derive(Debug, Default)]
pub struct Work {
    pub resolved_params_calls: u64,
    pub samples_generated: u64,
    pub lockstep_groups: u64,
    pub lockstep_lanes: u64,
    pub soa_lane_samples: u64,
    pub scalar_samples: u64,
    pub event_samples: u64,
    pub delta_cycles: u64,
    pub process_activations: u64,
    pub accepted_steps: u64,
    pub rejected_steps: u64,
    pub newton_iterations: u64,
    pub lu_solves: u64,
    pub slope_updates: u64,
    pub metric_samples: u64,
    pub stored_entries: u64,
    pub streamed_entries: u64,
    pub report_bytes: u64,
}

enum Job {
    Scalar(usize),
    Lockstep(Vec<usize>),
}

/// The jobs `BatchRunner::run` forms under auto routing: direct-timeless,
/// non-circuit scenarios sharing a (config, excitation, operating point)
/// triple run as one lockstep group when there are at least two of them.
fn route(scenarios: &[Scenario]) -> Vec<Job> {
    let mut jobs = Vec::new();
    let mut groups: Vec<Vec<usize>> = Vec::new();
    for (index, scenario) in scenarios.iter().enumerate() {
        let groupable = scenario.backend == BackendKind::DirectTimeless
            && !matches!(scenario.excitation, Excitation::Circuit(_));
        if !groupable {
            jobs.push(Job::Scalar(index));
            continue;
        }
        match groups.iter_mut().find(|members| {
            let other = &scenarios[members[0]];
            other.config == scenario.config
                && other.excitation == scenario.excitation
                && other.operating_point == scenario.operating_point
        }) {
            Some(members) => members.push(index),
            None => groups.push(vec![index]),
        }
    }
    for members in groups {
        if members.len() >= 2 {
            jobs.push(Job::Lockstep(members));
        } else {
            jobs.push(Job::Scalar(members[0]));
        }
    }
    jobs.sort_by_key(|job| match job {
        Job::Scalar(index) => *index,
        Job::Lockstep(members) => members[0],
    });
    jobs
}

/// Replay state reused across scenarios, as the engine's worker scratch is.
#[derive(Default)]
struct Scratch {
    samples: Option<(Excitation, Vec<f64>)>,
    backend: Option<(
        BackendKind,
        JaParameters,
        JaConfig,
        Box<dyn HysteresisBackend>,
    )>,
    soa: Option<SoaBatch>,
}

/// The excitation's flattened samples, recomputed only when the excitation
/// changed.
fn cached_samples<'s>(
    cache: &'s mut Option<(Excitation, Vec<f64>)>,
    excitation: &Excitation,
    rec: &mut Recorder,
    work: &mut Work,
) -> &'s [f64] {
    let hit = cache.as_ref().is_some_and(|(key, _)| key == excitation);
    if !hit {
        let samples = rec.time("scenario.to_samples", || excitation.to_samples());
        work.samples_generated += samples.len() as u64;
        *cache = Some((excitation.clone(), samples));
    }
    &cache.as_ref().expect("cached above").1
}

fn resolved(
    scenario: &Scenario,
    rec: &mut Recorder,
    work: &mut Work,
) -> Result<JaParameters, JaError> {
    work.resolved_params_calls += 1;
    rec.time("scenario.resolved_params", || scenario.resolved_params())
}

fn loss(
    scenario: &Scenario,
    curve: &BhCurve,
    rec: &mut Recorder,
) -> Option<magnetics::losses::CoreLoss> {
    let op = scenario.operating_point.as_ref()?;
    let geometry = op.geometry.as_ref()?;
    let frequency = op.frequency_hz?;
    rec.time("losses.core_loss", || {
        core_loss(curve, geometry, frequency, op.lamination).ok()
    })
}

/// The outcome of a stepped curve: the loop metrics and the loss, which
/// both paths compute per scenario after stepping.
fn finish(
    scenario: &Scenario,
    curve: BhCurve,
    stepped: Stepped,
    rec: &mut Recorder,
    work: &mut Work,
) -> ScenarioOutcome {
    work.metric_samples += curve.len() as u64;
    work.slope_updates += stepped.stats.updates;
    let metrics = rec.time("metrics.loop_metrics", || loop_metrics(&curve).ok());
    let loss = loss(scenario, &curve, rec);
    ScenarioOutcome {
        name: scenario.name.clone(),
        backend: scenario.backend,
        curve,
        metrics,
        loss,
        operating_point: scenario.operating_point,
        stats: stepped.stats,
        kernel: stepped.kernel,
        transient: stepped.transient,
        runtime: Duration::ZERO,
        lockstep_lanes: stepped.lanes,
    }
}

/// The stepping kernel's counters for one scenario.
struct Stepped {
    stats: ja_hysteresis::model::JaStatistics,
    kernel: Option<ja_hysteresis::backend::KernelStatistics>,
    transient: Option<hdl_models::scenario::TransientStats>,
    lanes: Option<usize>,
}

fn run_scalar(
    scenario: &Scenario,
    scratch: &mut Scratch,
    rec: &mut Recorder,
    work: &mut Work,
) -> Result<ScenarioOutcome, JaError> {
    let params = resolved(scenario, rec, work)?;
    let reusable = scratch.backend.as_ref().is_some_and(|(kind, p, c, _)| {
        *kind == scenario.backend && *p == params && *c == scenario.config
    });
    if reusable {
        let backend = &mut scratch.backend.as_mut().expect("checked above").3;
        rec.time("scenario.backend_build", || backend.reset())?;
    } else {
        let built = rec.time("scenario.backend_build", || {
            scenario.backend.build(params, scenario.config)
        })?;
        scratch.backend = Some((scenario.backend, params, scenario.config, built));
    }
    let (field_samples, transient) = match &scenario.excitation {
        Excitation::Circuit(spec) => {
            let params = resolved(scenario, rec, work)?;
            let run = rec.time("mna.simulate", || spec.simulate(params, scenario.config))?;
            work.accepted_steps += run.stats.accepted_steps as u64;
            work.rejected_steps += run.stats.rejected_steps as u64;
            work.newton_iterations += run.stats.newton_iterations as u64;
            work.lu_solves += run.stats.lu_solves as u64;
            (Some(run.field_samples), Some(run.stats))
        }
        _ => (None, None),
    };
    let samples: &[f64] = match &field_samples {
        Some(samples) => samples,
        None => cached_samples(&mut scratch.samples, &scenario.excitation, rec, work),
    };
    let backend = &mut scratch.backend.as_mut().expect("built above").3;
    let span = if scenario.backend == BackendKind::SystemC {
        work.event_samples += samples.len() as u64;
        "event.step"
    } else {
        work.scalar_samples += samples.len() as u64;
        "scalar.step"
    };
    let curve = rec.time(span, || backend.run_samples(samples))?;
    let kernel = backend.kernel_statistics();
    if let Some(kernel) = kernel {
        work.delta_cycles += kernel.delta_cycles;
        work.process_activations += kernel.process_activations;
    }
    let stepped = Stepped {
        stats: backend.statistics(),
        kernel,
        transient,
        lanes: None,
    };
    Ok(finish(scenario, curve, stepped, rec, work))
}

fn run_lockstep(
    scenarios: &[Scenario],
    members: &[usize],
    scratch: &mut Scratch,
    rec: &mut Recorder,
    work: &mut Work,
) -> Vec<Result<ScenarioOutcome, JaError>> {
    let first = &scenarios[members[0]];
    let params: Result<Vec<JaParameters>, JaError> = members
        .iter()
        .map(|&index| resolved(&scenarios[index], rec, work))
        .collect();
    let params = params.expect("benchmark grids resolve at every operating point");
    work.lockstep_groups += 1;
    work.lockstep_lanes += members.len() as u64;
    let reusable = scratch
        .soa
        .as_ref()
        .is_some_and(|batch| *batch.config() == first.config);
    if !reusable {
        scratch.soa = Some(SoaBatch::new(first.config, SoaPrecision::F64).expect("valid config"));
    }
    let samples = cached_samples(&mut scratch.samples, &first.excitation, rec, work);
    let batch = scratch.soa.as_mut().expect("constructed above");
    let mut curves: Vec<BhCurve> = (0..members.len()).map(|_| BhCurve::new()).collect();
    rec.time("soa.step", || {
        batch.assign(&params);
        batch.run_samples_into_curves(samples, &mut curves);
    });
    work.soa_lane_samples += (samples.len() * members.len()) as u64;
    let lane_results: Vec<_> = (0..members.len())
        .map(|lane| (batch.lane_error(lane).cloned(), batch.lane_statistics(lane)))
        .collect();
    members
        .iter()
        .zip(curves)
        .zip(lane_results)
        .map(|((&index, curve), (error, stats))| match error {
            Some(err) => Err(err),
            None => {
                let stepped = Stepped {
                    stats,
                    kernel: None,
                    transient: None,
                    lanes: Some(members.len()),
                };
                Ok(finish(&scenarios[index], curve, stepped, rec, work))
            }
        })
        .collect()
}

/// Replays a scenario list through every layer the engine would call, in
/// job order, and returns the outcomes in input order.
pub fn replay(
    scenarios: &[Scenario],
    rec: &mut Recorder,
    work: &mut Work,
) -> Vec<Result<ScenarioOutcome, JaError>> {
    let mut slots: Vec<Option<Result<ScenarioOutcome, JaError>>> =
        scenarios.iter().map(|_| None).collect();
    let mut scratch = Scratch::default();
    for job in route(scenarios) {
        match job {
            Job::Scalar(index) => {
                slots[index] = Some(run_scalar(&scenarios[index], &mut scratch, rec, work));
            }
            Job::Lockstep(members) => {
                for (index, outcome) in members.iter().copied().zip(run_lockstep(
                    scenarios,
                    &members,
                    &mut scratch,
                    rec,
                    work,
                )) {
                    slots[index] = Some(outcome);
                }
            }
        }
    }
    slots
        .into_iter()
        .map(|slot| slot.expect("every scenario replayed once"))
        .collect()
}

/// Renders the replayed outcomes as the stored `kind:"batch"` report, the
/// body `ja batch` writes.
pub fn render_stored(
    scenarios: &[Scenario],
    outcomes: Vec<Result<ScenarioOutcome, JaError>>,
    rec: &mut Recorder,
) -> String {
    let report = BatchReport {
        entries: scenarios
            .iter()
            .cloned()
            .zip(outcomes)
            .map(|(scenario, outcome)| BatchEntry {
                scenario,
                outcome,
                wall_clock: Duration::ZERO,
            })
            .collect(),
        workers: 1,
        elapsed: Duration::ZERO,
    };
    rec.time("report.render", || {
        batch_report_value(&report, false).to_pretty_string()
    })
}

/// Renders the same outcomes as the NDJSON stream: one record per entry,
/// the running digest, and the sealing manifest.
pub fn render_streamed(
    scenarios: &[Scenario],
    outcomes: &[Result<ScenarioOutcome, JaError>],
    rec: &mut Recorder,
) -> String {
    let mut out = String::new();
    let mut digest = StreamDigest::new();
    let (mut succeeded, mut failed) = (0, 0);
    rec.enter("report.streamed");
    for (index, (scenario, outcome)) in scenarios.iter().zip(outcomes).enumerate() {
        let record = rec.time("report.ndjson", || {
            ndjson_record(index, &scenario.name, outcome)
        });
        rec.time("report.digest", || digest.update(record.as_bytes()));
        out.push_str(&record);
        if outcome.is_ok() {
            succeeded += 1;
        } else {
            failed += 1;
        }
    }
    out.push_str(&ndjson_manifest(
        scenarios.len(),
        succeeded,
        failed,
        &digest,
    ));
    rec.exit();
    out
}
