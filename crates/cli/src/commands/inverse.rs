//! `ja inverse` — flux-driven solve: target B trace in, required H out.

use hdl_models::report::{metrics_value, report_envelope};
use ja_hysteresis::inverse::{FluxDrivenJa, InverseOptions};
use ja_hysteresis::json::JsonValue;
use ja_hysteresis::model::JilesAtherton;
use magnetics::loop_analysis::loop_metrics;
use waveform::export::read_csv;

use crate::commands::fit::column;
use crate::common::{material_by_name, model_config, read_input, write_curve_csv, write_output};
use crate::{opts, CliError};

/// Per-subcommand help (see `ja help inverse`).
pub const HELP: &str = "\
ja inverse — flux-driven operation: impose B(t), solve for the required H

USAGE:
    ja inverse --input PATH [OPTIONS]

OPTIONS:
    --input PATH          target flux-density CSV (required).  Uses the
                          `b` column, or the only column of a single-column
                          file, or --column.
    --column NAME         target column name
    --material NAME       date2006 | ja1984 | soft-ferrite | hard-steel
                          [default: date2006]
    --dh-max A_PER_M      discretisation threshold            [default: 10]
    --b-tolerance T       absolute tolerance on achieved B    [default: 1e-6]
    --h-limit A_PER_M     largest |H| the solver may apply    [default: 1e6]
    --max-iterations N    bisection iterations per sample     [default: 80]
    --format FORMAT       csv | json                          [default: csv]
    --out PATH            write to PATH instead of stdout

CSV output is the resulting trajectory (columns h, b, m).  The JSON report
is `kind: \"inverse\"`: samples, h_peak_a_per_m, b_peak_t and the loop
metrics of the trajectory (null when it does not close a loop).";

/// Runs the subcommand.
///
/// # Errors
///
/// Usage errors for bad options; failures for unreadable input or an
/// unreachable target.
pub fn run(args: &[String]) -> Result<(), CliError> {
    let parsed = opts::parse(
        args,
        &[],
        &[
            "input",
            "column",
            "material",
            "dh-max",
            "b-tolerance",
            "h-limit",
            "max-iterations",
            "format",
            "out",
        ],
    )?;
    parsed.no_positionals()?;

    let text = read_input(parsed.require("input")?)?;
    let input = read_csv(&text).map_err(|err| CliError::failure(err.to_string()))?;
    let targets: &[f64] = match parsed.value("column") {
        Some(name) => column(&input, name)?,
        None if input.width() == 1 => input.column_at(0).expect("width checked"),
        None => column(&input, "b")?,
    };

    let (params, _) = material_by_name(parsed.value("material").unwrap_or("date2006"))?;
    let (_, config) = model_config(parsed.f64_or("dh-max", 10.0)?)?;
    let model = JilesAtherton::with_config(params, config)
        .map_err(|err| CliError::failure(err.to_string()))?;
    let defaults = InverseOptions::default();
    let options = InverseOptions {
        b_tolerance: parsed.f64_or("b-tolerance", defaults.b_tolerance)?,
        max_iterations: parsed.usize_or("max-iterations", defaults.max_iterations)?,
        h_limit: parsed.f64_or("h-limit", defaults.h_limit)?,
    };
    options
        .validate()
        .map_err(|err| CliError::usage(err.to_string()))?;

    let mut solver = FluxDrivenJa::new(model).with_options(options);
    let curve = solver
        .follow_flux_density(targets.iter().copied())
        .map_err(|err| CliError::failure(err.to_string()))?;

    let out = parsed.value("out");
    match parsed.value("format").unwrap_or("csv") {
        "csv" => write_curve_csv(out, &curve),
        "json" => {
            let h_peak = curve
                .points()
                .iter()
                .fold(0.0_f64, |acc, p| acc.max(p.h.value().abs()));
            let b_peak = curve
                .points()
                .iter()
                .fold(0.0_f64, |acc, p| acc.max(p.b.as_tesla().abs()));
            let doc = report_envelope("inverse")
                .with("samples", curve.len())
                .with("h_peak_a_per_m", h_peak)
                .with("b_peak_t", b_peak)
                .with(
                    "metrics",
                    loop_metrics(&curve)
                        .map(|m| metrics_value(&m))
                        .unwrap_or(JsonValue::Null),
                );
            write_output(out, &doc.to_pretty_string())
        }
        other => Err(CliError::usage(format!(
            "unknown format `{other}` (expected csv | json)"
        ))),
    }
}
