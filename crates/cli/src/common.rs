//! Shared helpers: name → domain-object lookups, excitation construction,
//! the single-scenario runner, report envelopes and output writing.

use std::io::{self, Write};

use hdl_models::exec::SoaRouting;
use hdl_models::report;
use hdl_models::scenario::{
    BackendKind, CircuitExcitation, Excitation, ScenarioOutcome, SourceWaveform, StepControl,
};
use ja_hysteresis::config::JaConfig;
use ja_hysteresis::json::JsonValue;
use magnetics::material::JaParameters;
use magnetics::thermal::ThermalCoefficients;
use waveform::export::ascii_plot;

use crate::grid_config::GridSpec;
use crate::opts::Parsed;
use crate::CliError;

/// Accepted material preset names (the `magnetics` crate's constructors).
pub const MATERIALS: [&str; 4] = ["date2006", "ja1984", "soft-ferrite", "hard-steel"];

/// Looks a material preset up by name: its reference parameters and the
/// thermal coefficients (Curie point, drift constants) a temperature axis
/// resolves them through, so a preset always comes with its own pair.
///
/// # Errors
///
/// Usage error for an unknown name.
pub fn material_by_name(name: &str) -> Result<(JaParameters, ThermalCoefficients), CliError> {
    match name {
        "date2006" => Ok((JaParameters::date2006(), ThermalCoefficients::date2006())),
        "ja1984" => Ok((
            JaParameters::jiles_atherton_1984(),
            ThermalCoefficients::jiles_atherton_1984(),
        )),
        "soft-ferrite" => Ok((
            JaParameters::soft_ferrite(),
            ThermalCoefficients::soft_ferrite(),
        )),
        "hard-steel" => Ok((
            JaParameters::hard_steel(),
            ThermalCoefficients::hard_steel(),
        )),
        other => Err(CliError::usage(format!(
            "unknown material `{other}` (expected one of: {})",
            MATERIALS.join(", ")
        ))),
    }
}

/// The validated model configuration for a `ΔH_max` value, with its
/// scenario-key name (`dh10`, `dh2.5`, …): the one place a front end turns
/// a threshold into a configuration.
///
/// # Errors
///
/// Usage error when the configuration rejects the value.
pub fn model_config(dh_max: f64) -> Result<(String, JaConfig), CliError> {
    let config = JaConfig::default().with_dh_max(dh_max);
    config
        .validate()
        .map_err(|err| CliError::usage(err.to_string()))?;
    Ok((format!("dh{dh_max}"), config))
}

/// Looks a backend up by its label or short alias.
///
/// # Errors
///
/// Usage error for an unknown name.
pub fn backend_by_name(name: &str) -> Result<BackendKind, CliError> {
    match name {
        "direct" | "direct-timeless" => Ok(BackendKind::DirectTimeless),
        "systemc" | "systemc-event-kernel" => Ok(BackendKind::SystemC),
        "ams" | "ams-timeless" => Ok(BackendKind::AmsTimeless),
        "time-domain" | "time-domain-baseline" => Ok(BackendKind::TimeDomainBaseline),
        other => Err(CliError::usage(format!(
            "unknown backend `{other}` (expected direct | systemc | ams | time-domain, \
             or the full labels)"
        ))),
    }
}

/// Looks the lockstep routing policy up by its `--routing` name.  Routing
/// never changes report content (the SoA `f64` lanes are bit-identical to
/// scalar execution) — only how candidate work is scheduled.
///
/// # Errors
///
/// Usage error for an unknown name.
pub fn routing_by_name(name: &str) -> Result<SoaRouting, CliError> {
    match name {
        "auto" => Ok(SoaRouting::Auto),
        "soa" => Ok(SoaRouting::ForceSoa),
        "scalar" => Ok(SoaRouting::ForceScalar),
        other => Err(CliError::usage(format!(
            "unknown routing `{other}` (expected auto | soa | scalar)"
        ))),
    }
}

/// Expands a backend list name: `all`, `timeless`, or a single backend.
///
/// # Errors
///
/// Usage error for an unknown name.
pub fn backend_set_by_name(name: &str) -> Result<Vec<BackendKind>, CliError> {
    match name {
        "all" => Ok(BackendKind::ALL.to_vec()),
        "timeless" => Ok(BackendKind::TIMELESS.to_vec()),
        other => Ok(vec![backend_by_name(other)?]),
    }
}

/// An excitation together with the stable name used in scenario keys
/// (derived from the parameters, so the same stimulus always gets the same
/// key — reports stay diffable).
pub struct NamedExcitation {
    /// Scenario-key component, e.g. `major(peak=10000,step=100,cycles=1)`.
    pub name: String,
    /// The stimulus itself.
    pub excitation: Excitation,
}

impl NamedExcitation {
    /// The paper's Fig. 1 stimulus with the given field step.
    ///
    /// # Errors
    ///
    /// Failure when the step is invalid for the schedule.
    pub fn fig1(step: f64) -> Result<Self, CliError> {
        Ok(Self {
            name: format!("fig1(step={step})"),
            excitation: Excitation::fig1(step).map_err(CliError::from)?,
        })
    }

    /// A triangular major loop.
    ///
    /// # Errors
    ///
    /// Failure when the parameters are invalid for the schedule.
    pub fn major(peak: f64, step: f64, cycles: usize) -> Result<Self, CliError> {
        Ok(Self {
            name: format!("major(peak={peak},step={step},cycles={cycles})"),
            excitation: Excitation::major_loop(peak, step, cycles).map_err(CliError::from)?,
        })
    }

    /// A biased minor loop.
    ///
    /// # Errors
    ///
    /// Failure when the parameters are invalid for the schedule.
    pub fn biased(bias: f64, amplitude: f64, cycles: usize, step: f64) -> Result<Self, CliError> {
        Ok(Self {
            name: format!("biased(bias={bias},amplitude={amplitude},cycles={cycles},step={step})"),
            excitation: Excitation::biased_minor_loop(bias, amplitude, cycles, step)
                .map_err(CliError::from)?,
        })
    }

    /// A degaussing schedule: triangular cycles decaying geometrically
    /// from `h_start` towards `h_stop`, finishing at `H = 0`.
    ///
    /// # Errors
    ///
    /// Failure when the parameters are invalid for the schedule.
    pub fn degauss(h_start: f64, h_stop: f64, decay: f64, step: f64) -> Result<Self, CliError> {
        Ok(Self {
            name: format!("degauss(h_start={h_start},h_stop={h_stop},decay={decay},step={step})"),
            excitation: Excitation::demagnetisation(h_start, h_stop, decay, step)
                .map_err(CliError::from)?,
        })
    }
}

/// The triangular stimulus `ja sweep` and `ja compare` take from
/// `--fig1` or `--peak`/`--cycles`, walked at `--step` (default
/// `default_step`).
///
/// # Errors
///
/// Usage error for malformed values or `--fig1` with `--peak`/`--cycles`;
/// failure when the schedule rejects the parameters.
pub fn stimulus(parsed: &Parsed, default_step: f64) -> Result<NamedExcitation, CliError> {
    let step = parsed.f64_or("step", default_step)?;
    if parsed.flag("fig1") {
        if parsed.value("peak").is_some() || parsed.value("cycles").is_some() {
            return Err(CliError::usage(
                "--fig1 replaces the triangular stimulus; it excludes --peak and --cycles",
            ));
        }
        NamedExcitation::fig1(step)
    } else {
        NamedExcitation::major(
            parsed.f64_or("peak", 10_000.0)?,
            step,
            parsed.usize_or("cycles", 1)?,
        )
    }
}

/// Raw circuit-excitation parameters as they arrive from the command line
/// or a grid-config line, before validation by the scenario layer.  Every
/// parameter is optional; `None` falls back to the corresponding field of
/// the [`CircuitExcitation::inrush`] preset, so the CLI defaults and the
/// library preset can never diverge.
#[derive(Default)]
pub struct CircuitSpecArgs<'a> {
    /// Source waveform kind: `sine`, `triangular` or `pwm`.
    pub source: Option<&'a str>,
    /// Source peak voltage (V).
    pub amplitude: Option<f64>,
    /// Source frequency (Hz).
    pub frequency: Option<f64>,
    /// PWM duty cycle in (0, 1); only meaningful for `source=pwm`.
    pub duty: Option<f64>,
    /// Series resistance (Ω).
    pub resistance: Option<f64>,
    /// Winding turns.
    pub turns: Option<f64>,
    /// Core cross-section (m²).
    pub area: Option<f64>,
    /// Magnetic path length (m).
    pub path: Option<f64>,
    /// Transient end time (s).
    pub t_end: Option<f64>,
    /// Fixed-step size (s); under the adaptive controller it seeds the
    /// initial step instead.
    pub dt: Option<f64>,
    /// Use the adaptive step controller instead of fixed `dt`.
    pub adaptive: bool,
    /// Adaptive relative-tolerance override.
    pub rel_tol: Option<f64>,
    /// Adaptive absolute-tolerance override.
    pub abs_tol: Option<f64>,
    /// Adaptive step-ceiling override.
    pub max_step: Option<f64>,
}

/// Builds a named circuit excitation from raw parameters, defaulting every
/// omitted field to the [`CircuitExcitation::inrush`] preset.  The name
/// derives from every parameter (control included), so identical circuits
/// always land under the same scenario key and reports stay diffable.
///
/// # Errors
///
/// Usage error for an unknown source kind, adaptive-only tuning knobs
/// given without adaptive control (`adaptive_hint` names the surface's
/// way of enabling it), or parameters the scenario layer rejects.
pub fn circuit_excitation(
    args: &CircuitSpecArgs<'_>,
    adaptive_hint: &str,
) -> Result<NamedExcitation, CliError> {
    if !args.adaptive
        && (args.rel_tol.is_some() || args.abs_tol.is_some() || args.max_step.is_some())
    {
        return Err(CliError::usage(format!(
            "rel_tol/abs_tol/max_step tune the adaptive controller; {adaptive_hint}"
        )));
    }
    let defaults = CircuitExcitation::inrush();
    let amplitude = args
        .amplitude
        .unwrap_or_else(|| defaults.source.amplitude());
    let frequency = args
        .frequency
        .unwrap_or_else(|| defaults.source.frequency());
    let source_kind = args.source.unwrap_or_else(|| defaults.source.label());
    if args.duty.is_some() && source_kind != "pwm" {
        return Err(CliError::usage(format!(
            "duty only applies to source=pwm, not `{source_kind}`"
        )));
    }
    let source = match source_kind {
        "sine" => SourceWaveform::Sine {
            amplitude,
            frequency,
        },
        "triangular" => SourceWaveform::Triangular {
            amplitude,
            frequency,
        },
        "pwm" => SourceWaveform::Pwm {
            amplitude,
            frequency,
            duty: args.duty.unwrap_or(0.5),
        },
        other => {
            return Err(CliError::usage(format!(
                "unknown source `{other}` (expected sine | triangular | pwm)"
            )))
        }
    };
    let resistance = args.resistance.unwrap_or(defaults.series_resistance);
    let turns = args.turns.unwrap_or(defaults.turns);
    let area = args.area.unwrap_or(defaults.area);
    let path = args.path.unwrap_or(defaults.path_length);
    let t_end = args.t_end.unwrap_or(defaults.t_end);
    let dt = args.dt.unwrap_or(defaults.dt);
    let mut spec = CircuitExcitation::new(source, resistance, turns, area, path, t_end, dt)
        .map_err(|err| CliError::usage(err.to_string()))?;
    let control_name = if args.adaptive {
        let mut options = CircuitExcitation::adaptive_defaults();
        if let Some(rel_tol) = args.rel_tol {
            options.rel_tol = rel_tol;
        }
        if let Some(abs_tol) = args.abs_tol {
            options.abs_tol = abs_tol;
        }
        if let Some(max_step) = args.max_step {
            options.max_step = max_step;
        }
        // An explicit dt under adaptive control is not ignored: it seeds
        // the controller's first step.
        if let Some(dt) = args.dt {
            options.initial_step = dt;
        }
        // Reject bad controller values here, as a usage error naming the
        // field — not as a runtime solver failure from inside the batch.
        options
            .validate()
            .map_err(|err| CliError::usage(err.to_string()))?;
        spec = spec.with_step_control(StepControl::Adaptive(options));
        format!(
            "adaptive(rel={},abs={},max={},init={})",
            options.rel_tol, options.abs_tol, options.max_step, options.initial_step
        )
    } else {
        format!("fixed(dt={dt})")
    };
    let source_name = match source.duty() {
        Some(duty) => format!("pwm(amplitude={amplitude},frequency={frequency},duty={duty})"),
        None => format!(
            "{}(amplitude={amplitude},frequency={frequency})",
            source.label()
        ),
    };
    Ok(NamedExcitation {
        name: format!(
            "circuit({source_name},r={resistance},\
             turns={turns},area={area},path={path},t_end={t_end},{control_name})"
        ),
        excitation: Excitation::Circuit(spec),
    })
}

/// Iterates the meaningful lines of a `key = value` config file: strips
/// `#` comments and surrounding whitespace, skips blank lines, and yields
/// 1-based `(line_number, content)` pairs for error reporting.  Shared by
/// the `ja batch` grid config and the `ja fit` library config, so the two
/// formats can never drift on lexing.
pub fn config_lines(text: &str) -> impl Iterator<Item = (usize, &str)> {
    text.lines().enumerate().filter_map(|(index, raw_line)| {
        let line = match raw_line.split_once('#') {
            Some((content, _comment)) => content.trim(),
            None => raw_line.trim(),
        };
        if line.is_empty() {
            None
        } else {
            Some((index + 1, line))
        }
    })
}

/// Prepends the shared envelope (`schema_version`, `kind`) to the fields of
/// a serialised scenario outcome, producing a flat single-outcome report.
pub fn enveloped_outcome(kind: &str, outcome: &ScenarioOutcome, timings: bool) -> JsonValue {
    let mut doc = report::report_envelope(kind);
    if let JsonValue::Object(fields) = report::outcome_value(outcome, timings) {
        for (key, value) in fields {
            doc.push(key, value);
        }
    }
    doc
}

/// Runs the one scenario of a single-scenario command (`ja sweep`,
/// `ja transient`) and writes it as `--format ascii | csv | json`: the
/// enveloped `kind` report, the BH trace, or a plot followed by the
/// transient-engine counters (circuit drives only) and the loop metrics.
///
/// # Errors
///
/// Usage errors for a bad spec or format; failures for scenario or output
/// errors.
pub fn run_single(parsed: &Parsed, kind: &str, spec: GridSpec) -> Result<(), CliError> {
    let outcome = spec
        .single()?
        .run()
        .map_err(|err| CliError::failure(err.to_string()))?;
    let out = parsed.value("out");
    match parsed.value("format").unwrap_or("ascii") {
        "json" => write_output(
            out,
            &enveloped_outcome(kind, &outcome, parsed.flag("timings")).to_pretty_string(),
        ),
        "csv" => write_curve_csv(out, &outcome.curve),
        "ascii" => {
            let (h, b): (Vec<f64>, Vec<f64>) = outcome
                .curve
                .points()
                .iter()
                .map(|p| (p.h.value(), p.b.as_tesla()))
                .unzip();
            let plot = ascii_plot(
                &h,
                &b,
                parsed.usize_or("width", 72)?,
                parsed.usize_or("height", 24)?,
            )
            .map_err(|err| CliError::failure(err.to_string()))?;
            let mut text = format!(
                "{}  [{} samples]\n{plot}",
                outcome.name,
                outcome.curve.len()
            );
            if let Some(stats) = &outcome.transient {
                let counters = report::transient_value(stats);
                for (key, value) in counters.as_object().unwrap_or_default() {
                    text.push_str(&format!("{key} = {}\n", value.to_compact_string()));
                }
            }
            match &outcome.metrics {
                Some(m) => {
                    for (key, value) in m.named_values() {
                        text.push_str(&format!("{key} = {value}\n"));
                    }
                }
                None => text.push_str("(trace does not form a closable loop; no metrics)\n"),
            }
            write_output(out, &text)
        }
        other => Err(CliError::usage(format!(
            "unknown format `{other}` (expected ascii | csv | json)"
        ))),
    }
}

/// Writes a BH trajectory as CSV (columns `h`, `b`, `m`) to `--out PATH`
/// or stdout — the one serialization `ja sweep` and `ja inverse` share.
///
/// # Errors
///
/// Failure when CSV formatting or the output write fails.
pub fn write_curve_csv(out: Option<&str>, curve: &magnetics::bh::BhCurve) -> Result<(), CliError> {
    let mut trace = waveform::trace::Trace::new(["h", "b", "m"]);
    for point in curve.points() {
        trace
            .push_row(&[point.h.value(), point.b.as_tesla(), point.m.value()])
            .expect("three values per row");
    }
    let mut buf = Vec::new();
    waveform::export::write_csv(&trace, &mut buf)
        .map_err(|err| CliError::failure(err.to_string()))?;
    write_output(out, &String::from_utf8(buf).expect("CSV is UTF-8"))
}

/// Writes `content` to `--out PATH`, or to stdout when no path was given.
///
/// # Errors
///
/// Failure when the file cannot be written, or when stdout is closed (a
/// reader such as `head` that exits early): that is a clean exit 1 with one
/// `ja:` line, not a panic.
pub fn write_output(out: Option<&str>, content: &str) -> Result<(), CliError> {
    match out {
        None => {
            let mut stdout = io::stdout().lock();
            stdout
                .write_all(content.as_bytes())
                .and_then(|()| stdout.flush())
                .map_err(|err| CliError::failure(format!("cannot write to stdout: {err}")))
        }
        Some(path) => std::fs::write(path, content)
            .map_err(|err| CliError::failure(format!("cannot write `{path}`: {err}"))),
    }
}

/// Reads a whole input file.
///
/// # Errors
///
/// Failure when the file cannot be read.
pub fn read_input(path: &str) -> Result<String, CliError> {
    std::fs::read_to_string(path)
        .map_err(|err| CliError::failure(format!("cannot read `{path}`: {err}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn material_and_backend_lookup() {
        for name in MATERIALS {
            assert!(material_by_name(name).is_ok(), "{name}");
        }
        assert!(material_by_name("mu-metal").is_err());
        // Every preset pairs with its own thermal coefficients.
        let (_, thermal) = material_by_name("hard-steel").unwrap();
        assert_eq!(thermal, ThermalCoefficients::hard_steel());
        assert_eq!(
            backend_by_name("direct").unwrap(),
            BackendKind::DirectTimeless
        );
        assert_eq!(
            backend_by_name("systemc-event-kernel").unwrap(),
            BackendKind::SystemC
        );
        assert!(backend_by_name("verilog").is_err());
        assert_eq!(backend_set_by_name("all").unwrap().len(), 4);
        assert_eq!(backend_set_by_name("timeless").unwrap().len(), 3);
        assert_eq!(backend_set_by_name("ams").unwrap().len(), 1);
    }

    #[test]
    fn excitation_names_are_stable() {
        assert_eq!(
            NamedExcitation::major(10_000.0, 100.0, 1).unwrap().name,
            "major(peak=10000,step=100,cycles=1)"
        );
        assert_eq!(NamedExcitation::fig1(50.0).unwrap().name, "fig1(step=50)");
        assert_eq!(
            NamedExcitation::biased(1_000.0, 500.0, 2, 10.0)
                .unwrap()
                .name,
            "biased(bias=1000,amplitude=500,cycles=2,step=10)"
        );
        assert_eq!(model_config(10.0).unwrap().0, "dh10");
        assert_eq!(model_config(2.5).unwrap().0, "dh2.5");
        assert!(model_config(-1.0).is_err());
    }

    #[test]
    fn invalid_excitations_are_reported() {
        assert!(NamedExcitation::major(10_000.0, -1.0, 1).is_err());
        assert!(NamedExcitation::fig1(0.0).is_err());
        assert!(NamedExcitation::degauss(10_000.0, 20_000.0, 0.5, 10.0).is_err());
    }

    #[test]
    fn degauss_names_are_stable() {
        assert_eq!(
            NamedExcitation::degauss(10_000.0, 100.0, 0.5, 10.0)
                .unwrap()
                .name,
            "degauss(h_start=10000,h_stop=100,decay=0.5,step=10)"
        );
    }

    #[test]
    fn pwm_circuit_names_carry_the_duty_cycle() {
        let named = circuit_excitation(
            &CircuitSpecArgs {
                source: Some("pwm"),
                amplitude: Some(30.0),
                frequency: Some(50.0),
                duty: Some(0.25),
                ..CircuitSpecArgs::default()
            },
            "pass --adaptive",
        )
        .unwrap();
        assert!(
            named
                .name
                .starts_with("circuit(pwm(amplitude=30,frequency=50,duty=0.25),"),
            "{}",
            named.name
        );
    }

    #[test]
    fn duty_is_rejected_for_non_pwm_sources() {
        let err = match circuit_excitation(
            &CircuitSpecArgs {
                source: Some("sine"),
                duty: Some(0.5),
                ..CircuitSpecArgs::default()
            },
            "pass --adaptive",
        ) {
            Err(err) => err,
            Ok(named) => panic!("expected a usage error, got `{}`", named.name),
        };
        assert!(err.message.contains("duty only applies"), "{}", err.message);
    }
}
