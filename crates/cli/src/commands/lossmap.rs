//! `ja lossmap` — sweep frequency × amplitude × temperature per material
//! and emit a `kind:"loss_map"` report: one loss breakdown per operating
//! point plus a fitted two-exponent Steinmetz law per material.
//!
//! The map rides entirely on the scenario pipeline: each point is a major
//! loop run at an [`hdl_models::scenario::OperatingPoint`] carrying the
//! temperature (thermal parameter scaling), the excitation frequency and
//! the core geometry, so the per-point loss objects are exactly what
//! `ja batch` would report for the equivalent grid — and byte-identical
//! for any `--workers` / `--routing` value.

use hdl_models::exec::BatchRunner;
use hdl_models::report::{loss_value, report_envelope};
use hdl_models::scenario::OperatingPoint;
use ja_hysteresis::json::JsonValue;
use magnetics::geometry::CoreGeometry;
use magnetics::losses::{fit_steinmetz_full, LaminationSpec};

use crate::common::{routing_by_name, write_output, NamedExcitation};
use crate::grid_config::GridSpec;
use crate::{opts, CliError};

/// Per-subcommand help (see `ja help lossmap`).
pub const HELP: &str = "\
ja lossmap — sweep frequency x amplitude x temperature per material and
report core loss per operating point plus a fitted Steinmetz law

USAGE:
    ja lossmap [OPTIONS]

GRID (colon-separated lists; the map is their cartesian product):
    --materials LIST    comma-separated presets         [default: date2006]
    --frequencies LIST  excitation frequencies (Hz)     [default: 50:100:200]
    --amplitudes LIST   major-loop field peaks (A/m)    [default: 5000:10000]
    --temperatures LIST operating temperatures (degC)   [default: 25]
    --step A_PER_M      field step of the major loops   [default: 50]
    --dh-max A_PER_M    timeless discretisation         [default: 10]

CORE:
    --area M2           core cross-section              [default: 1e-4]
    --path M            magnetic path length            [default: 0.1]
    --laminated         add the classical eddy-current term for 0.35 mm
                        silicon-steel laminations

EXECUTION:
    --workers N         worker threads; 0 = one per core [default: 0]
    --routing MODE      auto | soa | scalar              [default: auto]
    --out PATH          write to PATH instead of stdout

The report is `kind: \"loss_map\"`: the envelope plus
    points     int    map size
    succeeded  int    points with status ok
    failed     int    points that errored
    entries    array  one object per point, in grid order: scenario,
                      status, then (ok only) material, peak_h_a_per_m,
                      frequency_hz, temperature_c, b_pk_t and the loss
                      object (hysteresis_w, eddy_w, total_w,
                      energy_per_cycle_j), or (error only) error
    fits       array  per material: material, points, then the Steinmetz
                      fit P = k * f^alpha * B_pk^beta as k, alpha, beta —
                      or error when the map does not constrain the fit
Reports are byte-identical for any --workers / --routing value.

EXIT STATUS: 0 when every point succeeded, 1 otherwise (the report is
written either way).";

/// Parses a colon-separated `f64` list option, e.g. `--frequencies
/// 50:100:200`.
fn f64_list(parsed: &opts::Parsed, name: &str, default: &str) -> Result<Vec<f64>, CliError> {
    parsed
        .value(name)
        .unwrap_or(default)
        .split(':')
        .map(|token| {
            let token = token.trim();
            match token.parse::<f64>() {
                Ok(v) if v.is_finite() => Ok(v),
                _ => Err(CliError::usage(format!(
                    "--{name} expects a colon-separated list of finite numbers, got `{token}`"
                ))),
            }
        })
        .collect()
}

/// Runs the subcommand.
///
/// # Errors
///
/// Usage errors for bad options; failure when any point failed (after
/// writing the report) or output fails.
pub fn run(args: &[String]) -> Result<(), CliError> {
    let parsed = opts::parse(
        args,
        &["laminated"],
        &[
            "materials",
            "frequencies",
            "amplitudes",
            "temperatures",
            "step",
            "dh-max",
            "area",
            "path",
            "workers",
            "routing",
            "out",
        ],
    )?;
    parsed.no_positionals()?;

    let materials: Vec<&str> = parsed
        .value("materials")
        .unwrap_or("date2006")
        .split(',')
        .map(str::trim)
        .collect();
    let frequencies = f64_list(&parsed, "frequencies", "50:100:200")?;
    let amplitudes = f64_list(&parsed, "amplitudes", "5000:10000")?;
    let temperatures = f64_list(&parsed, "temperatures", "25")?;
    let step = parsed.f64_or("step", 50.0)?;
    let dh_max = parsed.f64_or("dh-max", 10.0)?;
    let area = parsed.f64_or("area", 1e-4)?;
    let path = parsed.f64_or("path", 0.1)?;
    let geometry = CoreGeometry::new(area, path).map_err(|err| CliError::usage(err.to_string()))?;
    let lamination = parsed
        .flag("laminated")
        .then(LaminationSpec::silicon_steel_0p35mm);

    let mut spec = GridSpec::default().backends("direct")?.dh_max(dh_max)?;
    for name in &materials {
        spec = spec.material(name)?;
    }
    for &amplitude in &amplitudes {
        spec = spec.named_excitation(NamedExcitation::major(amplitude, step, 1)?);
    }
    let mut grid = spec.finish()?;
    // The operating-point axis carries (frequency, temperature) pairs —
    // frequency innermost, so per-material runs group by temperature and
    // the SoA router sees maximal lockstep lanes per point.
    for &t_c in &temperatures {
        for &frequency in &frequencies {
            let mut op = OperatingPoint::at_temperature(t_c)
                .with_frequency(frequency)
                .with_geometry(geometry);
            if let Some(lamination) = lamination {
                op = op.with_lamination(lamination);
            }
            op.validate()
                .map_err(|err| CliError::usage(err.to_string()))?;
            grid = grid.operating_point(format!("f{frequency}_t{t_c}"), op);
        }
    }
    let scenarios = grid
        .scenarios()
        .map_err(|err| CliError::usage(err.to_string()))?;

    let runner = BatchRunner::new()
        .workers(parsed.usize_or("workers", 0)?)
        .soa_routing(routing_by_name(parsed.value("routing").unwrap_or("auto"))?);

    // Expansion order is excitation -> material -> operating point, so the
    // (amplitude, material) labels of each entry follow from its index.
    // Each point reduces on its worker to its entry document plus the
    // (frequency, B_pk, total loss) sample the Steinmetz fit needs.
    let per_material = temperatures.len() * frequencies.len();
    let per_amplitude = materials.len() * per_material;
    let (points, summary) = runner.run_reduced(&scenarios, |index, outcome, _| {
        let material_index = (index % per_amplitude) / per_material;
        let mut doc = JsonValue::object().with("scenario", scenarios[index].name.as_str());
        let mut fit_point = None;
        match outcome {
            Ok(outcome) => {
                doc.push("status", "ok");
                doc.push("material", materials[material_index]);
                doc.push("peak_h_a_per_m", amplitudes[index / per_amplitude]);
                let op = outcome.operating_point.unwrap_or_default();
                if let Some(frequency) = op.frequency_hz {
                    doc.push("frequency_hz", frequency);
                }
                if let Some(t_c) = op.temperature_c {
                    doc.push("temperature_c", t_c);
                }
                if let Some(metrics) = &outcome.metrics {
                    doc.push("b_pk_t", metrics.b_max.as_tesla());
                }
                if let Some(loss) = &outcome.loss {
                    doc.push("loss", loss_value(loss));
                    if let (Some(metrics), Some(frequency)) = (&outcome.metrics, op.frequency_hz) {
                        fit_point = Some((frequency, metrics.b_max.as_tesla(), loss.total_w));
                    }
                }
            }
            Err(err) => {
                doc.push("status", "error");
                doc.push("error", err.to_string());
            }
        }
        (doc, fit_point.map(|point| (material_index, point)))
    });

    let mut entries = Vec::with_capacity(points.len());
    let mut fit_points: Vec<Vec<(f64, f64, f64)>> = vec![Vec::new(); materials.len()];
    for (doc, fit_point) in points {
        entries.push(doc);
        if let Some((material_index, point)) = fit_point {
            fit_points[material_index].push(point);
        }
    }

    let fits: Vec<JsonValue> = materials
        .iter()
        .zip(&fit_points)
        .map(|(material, points)| {
            let mut doc = JsonValue::object()
                .with("material", *material)
                .with("points", points.len());
            match fit_steinmetz_full(points) {
                Ok((k, alpha, beta)) => {
                    doc.push("k", k);
                    doc.push("alpha", alpha);
                    doc.push("beta", beta);
                }
                Err(err) => {
                    doc.push("error", err.to_string());
                }
            }
            doc
        })
        .collect();

    let (total, failed) = (summary.scenarios, summary.failed);
    let doc = report_envelope("loss_map")
        .with("points", total)
        .with("succeeded", total - failed)
        .with("failed", failed)
        .with("entries", JsonValue::Array(entries))
        .with("fits", JsonValue::Array(fits));
    write_output(parsed.value("out"), &doc.to_pretty_string())?;
    if failed > 0 {
        return Err(CliError::failure(format!(
            "{failed} of {total} loss-map points did not succeed"
        )));
    }
    Ok(())
}
