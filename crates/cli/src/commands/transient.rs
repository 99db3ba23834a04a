//! `ja transient` — run one circuit-driven scenario and export the BH
//! trace with the transient engine's statistics.

use crate::common::{circuit_excitation, run_single, CircuitSpecArgs};
use crate::grid_config::GridSpec;
use crate::{opts, CliError};

/// Per-subcommand help (see `ja help transient`).
pub const HELP: &str = "\
ja transient — drive the core through a circuit (source → R → winding) and
export the BH trace the solver-chosen field trajectory produced

USAGE:
    ja transient [OPTIONS]

CIRCUIT (defaults reproduce the magnetising-inrush setup):
    --source KIND      sine | triangular | pwm                 [default: sine]
    --amplitude V      source peak voltage                     [default: 30]
    --frequency HZ     source frequency                        [default: 50]
    --duty X           pwm duty cycle in (0, 1); pwm only      [default: 0.5]
    --resistance OHMS  series resistance                       [default: 1]
    --turns N          winding turns                           [default: 200]
    --area M2          core cross-section                      [default: 1e-4]
    --path M           magnetic path length                    [default: 0.1]
    --t-end S          transient end time                      [default: 0.04]
    --dt S             fixed-step size; with --adaptive it seeds the
                       controller's initial step instead       [default: 5e-5]

STEP CONTROL:
    --adaptive         LTE-controlled variable steps instead of --dt
    --rel-tol X        adaptive relative tolerance             [default: 0.1]
    --abs-tol X        adaptive absolute tolerance             [default: 0.1]
    --max-step S       adaptive step ceiling                   [default: 1e-3]

MODEL:
    --backend NAME     direct | systemc | ams | time-domain    [default: direct]
    --material NAME    date2006 | ja1984 | soft-ferrite | hard-steel
                       [default: date2006]
    --dh-max A_PER_M   timeless discretisation threshold       [default: 10]

OUTPUT:
    --format FORMAT    ascii | csv | json                      [default: ascii]
    --width N          ascii plot width                        [default: 72]
    --height N         ascii plot height                       [default: 24]
    --timings          include runtime_ns and settled_newton_iterations
                       in the JSON report
    --out PATH         write to PATH instead of stdout

The transient engine simulates the circuit around the in-circuit core
(built from --material/--dh-max) and the winding-current trajectory
H = N·i/l then drives --backend sample-by-sample.  The JSON report is
`kind: \"transient\"`: the envelope plus one scenario entry including the
deterministic `transient` step/Newton counters (see `ja --help`).";

/// Runs the subcommand.
///
/// # Errors
///
/// Usage errors for bad options; failures for scenario or output errors.
pub fn run(args: &[String]) -> Result<(), CliError> {
    let parsed = opts::parse(
        args,
        &["adaptive", "timings"],
        &[
            "source",
            "amplitude",
            "frequency",
            "duty",
            "resistance",
            "turns",
            "area",
            "path",
            "t-end",
            "dt",
            "rel-tol",
            "abs-tol",
            "max-step",
            "backend",
            "material",
            "dh-max",
            "format",
            "width",
            "height",
            "out",
        ],
    )?;
    parsed.no_positionals()?;

    let spec = GridSpec::cell(
        parsed.value("material"),
        parsed.value("backend"),
        parsed.optional_f64("dh-max")?,
    )?;
    // Omitted options fall back to the inrush preset inside
    // `circuit_excitation` — the defaults in the help text above mirror
    // `CircuitExcitation::inrush` and are applied in exactly one place.
    let spec_args = CircuitSpecArgs {
        source: parsed.value("source"),
        amplitude: parsed.optional_f64("amplitude")?,
        frequency: parsed.optional_f64("frequency")?,
        duty: parsed.optional_f64("duty")?,
        resistance: parsed.optional_f64("resistance")?,
        turns: parsed.optional_f64("turns")?,
        area: parsed.optional_f64("area")?,
        path: parsed.optional_f64("path")?,
        t_end: parsed.optional_f64("t-end")?,
        dt: parsed.optional_f64("dt")?,
        adaptive: parsed.flag("adaptive"),
        rel_tol: parsed.optional_f64("rel-tol")?,
        abs_tol: parsed.optional_f64("abs-tol")?,
        max_step: parsed.optional_f64("max-step")?,
    };
    let spec = spec.named_excitation(circuit_excitation(&spec_args, "add --adaptive")?);
    run_single(&parsed, "transient", spec)
}
