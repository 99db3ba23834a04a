//! `ja fit` — fit JA parameters to measured BH loops, with multi-start
//! parallel search.

use std::path::Path;

use hdl_models::fit::{fit_batch, FitJob, MultiStartOptions};
use hdl_models::report::fit_report_value;
use ja_hysteresis::fitting::FitOptions;
use magnetics::bh::BhCurve;
use waveform::export::read_csv;
use waveform::trace::Trace;

use crate::common::{read_input, write_output};
use crate::{opts, CliError};

/// Per-subcommand help (see `ja help fit`).
pub const HELP: &str = "\
ja fit — extract JA parameters from measured BH loops (CSV in, JSON out)

USAGE:
    ja fit --input PATH [OPTIONS]
    ja fit --config PATH [OPTIONS]

INPUT (exactly one of):
    --input PATH          one measured-loop CSV.  Header row names the
                          columns; the loop must contain at least one full
                          major cycle.
    --config PATH         fit a whole library: a file of `loop = <csv>`
                          lines (format below), fitted in one parallel
                          batch.

OPTIONS:
    --h-column NAME       field column                       [default: h]
    --b-column NAME       flux-density column                [default: b]
    --h-peak A_PER_M      measurement's peak field
                          [default: max |H| of each input]
    --starts N            starting points per loop (1 = the plain initial
                          guess; more escape local minima)   [default: 1]
    --seed S              starting-point seed                [default: 42]
    --workers W           worker threads; 0 = one per core   [default: 0]
    --routing MODE        candidate evaluation routing       [default: auto]
                            auto    loops with >= 2 starts descend in
                                    lockstep: each cost call evaluates all
                                    live candidates as lanes of one
                                    structure-of-arrays sweep
                            soa     lockstep even for a single start
                            scalar  one independent descent per start
                          Routing never changes report content: SoA f64
                          lanes are bit-identical to scalar evaluation.
    --passes N            coordinate-search passes per start [default: 6]
    --initial-step FRAC   initial relative perturbation      [default: 0.4]
    --sweep-step A_PER_M  candidate-sweep field step         [default: 50]
    --timings             include run-dependent timing fields (per-start
                          wall_clock_ns and a trailing `timing` object).
                          Off by default so the report is byte-identical
                          for any --workers value.
    --out PATH            write to PATH instead of stdout

FIT CONFIG (`key = value` lines; `#` comments; one measured loop per line,
paths relative to the config file):
    loop = core_a.csv
    loop = core_b.csv h_peak=10000 h=field b=flux name=ferrite-b
Execution knobs (--starts, --workers, --seed, ...) stay on the command
line, so the same library can be fitted under different budgets.

The JSON report is `kind: \"fit\"`: the envelope carries `starts` and
`seed`; each fitted loop reports `loop`, input_samples, h_peak_a_per_m,
the measured loop metrics, per-start `entries` (start, status, cost,
evaluations, params), `best_start`, and the best start's `params` object
(m_sat_a_per_m, a_a_per_m, a2_a_per_m, k_a_per_m, alpha, c), `cost`
(0 = exact metric match) and total `evaluations`.  With --input the
single loop's fields are flat in the envelope; with --config they nest
one object per loop under `loops`.";

/// Extracts a named column, with an error that lists what is available.
pub fn column<'t>(trace: &'t Trace, name: &str) -> Result<&'t [f64], CliError> {
    trace.column(name).map_err(|_| {
        CliError::failure(format!(
            "input has no column `{name}` (available: {})",
            trace.names().join(", ")
        ))
    })
}

/// Column names and optional peak override shared by both input modes.
struct LoopSpec {
    path: String,
    name: String,
    h_column: String,
    b_column: String,
    h_peak: Option<f64>,
}

/// The options of a `ja fit` run (and of a served `fit_request`) before
/// any flag or option overrides them: the library defaults, except that
/// one start — the plain initial guess — is the default.
pub fn default_options() -> MultiStartOptions {
    MultiStartOptions {
        starts: 1,
        ..MultiStartOptions::default()
    }
}

/// A measured loop's `(h, b)` samples as a [`FitJob`], fitted at `h_peak`
/// or, when that is `None`, at the largest |H| of the samples.
pub fn measured_job(name: &str, h: &[f64], b: &[f64], h_peak: Option<f64>) -> FitJob {
    let mut curve = BhCurve::with_capacity(h.len());
    for (&h, &b) in h.iter().zip(b) {
        curve.push_raw(h, b, 0.0);
    }
    match h_peak {
        Some(h_peak) => FitJob::new(name, curve, h_peak),
        None => FitJob::with_auto_peak(name, curve),
    }
}

/// Reads one measured-loop CSV into a [`FitJob`].
fn load_job(spec: &LoopSpec) -> Result<FitJob, CliError> {
    let text = read_input(&spec.path)?;
    let trace =
        read_csv(&text).map_err(|err| CliError::failure(format!("`{}`: {err}", spec.path)))?;
    let h = column(&trace, &spec.h_column)?;
    let b = column(&trace, &spec.b_column)?;
    Ok(measured_job(&spec.name, h, b, spec.h_peak))
}

/// The loop's display name: the file stem of its path.
fn stem(path: &str) -> String {
    Path::new(path)
        .file_stem()
        .map_or_else(|| path.to_owned(), |s| s.to_string_lossy().into_owned())
}

/// Parses a fit config: `loop = <path> [h_peak=N] [h=COL] [b=COL]
/// [name=NAME]` lines, paths relative to the config file's directory.
fn parse_fit_config(
    text: &str,
    config_dir: &Path,
    default_h: &str,
    default_b: &str,
    default_peak: Option<f64>,
) -> Result<Vec<LoopSpec>, CliError> {
    let mut specs = Vec::new();
    for (lineno, line) in crate::common::config_lines(text) {
        let at = |message: String| CliError::usage(format!("fit config line {lineno}: {message}"));
        let (key, value) = line
            .split_once('=')
            .ok_or_else(|| at(format!("expected `loop = <path> ...`, got `{line}`")))?;
        if key.trim() != "loop" {
            return Err(at(format!("unknown key `{}` (expected loop)", key.trim())));
        }
        let mut tokens = value.split_whitespace();
        let path = tokens
            .next()
            .ok_or_else(|| at("missing CSV path".to_owned()))?;
        let path = config_dir.join(path).to_string_lossy().into_owned();
        let mut spec = LoopSpec {
            name: stem(&path),
            path,
            h_column: default_h.to_owned(),
            b_column: default_b.to_owned(),
            h_peak: default_peak,
        };
        for token in tokens {
            let (key, value) = token
                .split_once('=')
                .ok_or_else(|| at(format!("loop parameter `{token}` is not `key=value`")))?;
            match key {
                "h_peak" => {
                    spec.h_peak = Some(value.parse::<f64>().map_err(|_| {
                        at(format!("loop parameter `h_peak={value}` is not a number"))
                    })?);
                }
                "h" => spec.h_column = value.to_owned(),
                "b" => spec.b_column = value.to_owned(),
                "name" => spec.name = value.to_owned(),
                other => {
                    return Err(at(format!(
                        "unknown loop parameter `{other}` (expected h_peak | h | b | name)"
                    )))
                }
            }
        }
        specs.push(spec);
    }
    if specs.is_empty() {
        return Err(CliError::usage(
            "fit config contains no `loop = <path>` lines".to_owned(),
        ));
    }
    Ok(specs)
}

/// Runs the subcommand.
///
/// # Errors
///
/// Usage errors for bad options/config; failures for unreadable/degenerate
/// input or a fit that cannot run.
pub fn run(args: &[String]) -> Result<(), CliError> {
    let parsed = opts::parse(
        args,
        &["timings"],
        &[
            "input",
            "config",
            "h-column",
            "b-column",
            "h-peak",
            "starts",
            "seed",
            "workers",
            "routing",
            "passes",
            "initial-step",
            "sweep-step",
            "out",
        ],
    )?;
    parsed.no_positionals()?;

    let defaults = default_options();
    let options = MultiStartOptions {
        starts: parsed.usize_or("starts", defaults.starts)?,
        seed: parsed.usize_or("seed", defaults.seed as usize)? as u64,
        workers: parsed.usize_or("workers", defaults.workers)?,
        routing: crate::common::routing_by_name(parsed.value("routing").unwrap_or("auto"))?,
        fit: FitOptions {
            passes: parsed.usize_or("passes", defaults.fit.passes)?,
            initial_step: parsed.f64_or("initial-step", defaults.fit.initial_step)?,
            sweep_step: parsed.f64_or("sweep-step", defaults.fit.sweep_step)?,
        },
    };
    // Bad option values are a bad invocation (exit 2), not a runtime
    // failure — mirror how `ja inverse` treats InverseOptions.
    options
        .validate()
        .map_err(|err| CliError::usage(err.to_string()))?;

    let default_h = parsed.value("h-column").unwrap_or("h");
    let default_b = parsed.value("b-column").unwrap_or("b");
    let default_peak = parsed.optional_f64("h-peak")?;

    let specs = match (parsed.value("input"), parsed.value("config")) {
        (Some(_), Some(_)) => {
            return Err(CliError::usage(
                "--input and --config are mutually exclusive".to_owned(),
            ))
        }
        (None, None) => {
            return Err(CliError::usage(
                "--input or --config is required".to_owned(),
            ))
        }
        (Some(input), None) => vec![LoopSpec {
            path: input.to_owned(),
            name: stem(input),
            h_column: default_h.to_owned(),
            b_column: default_b.to_owned(),
            h_peak: default_peak,
        }],
        (None, Some(config)) => {
            let config_dir = Path::new(config)
                .parent()
                .unwrap_or_else(|| Path::new("."))
                .to_path_buf();
            parse_fit_config(
                &read_input(config)?,
                &config_dir,
                default_h,
                default_b,
                default_peak,
            )?
        }
    };

    let jobs = specs
        .iter()
        .map(load_job)
        .collect::<Result<Vec<_>, CliError>>()?;
    let report = fit_batch(jobs, &options).map_err(|err| {
        CliError::failure(format!(
            "fit failed: {err} (is every input a closed BH loop?)"
        ))
    })?;

    let doc = fit_report_value(&report, parsed.flag("timings"));
    write_output(parsed.value("out"), &doc.to_pretty_string())?;

    let failed_loops = report.loops.iter().filter(|l| l.best.is_none()).count();
    if failed_loops > 0 {
        return Err(CliError::failure(format!(
            "{failed_loops} of {} loops had no successful start",
            report.loops.len()
        )));
    }
    Ok(())
}
