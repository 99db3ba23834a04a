//! `ja sweep` — run one scenario and export the BH trace.

use crate::common::{run_single, stimulus};
use crate::grid_config::GridSpec;
use crate::{opts, CliError};

/// Per-subcommand help (see `ja help sweep`).
pub const HELP: &str = "\
ja sweep — run one scenario and export the BH trace

USAGE:
    ja sweep [OPTIONS]

OPTIONS:
    --backend NAME     direct | systemc | ams | time-domain   [default: direct]
    --material NAME    date2006 | ja1984 | soft-ferrite | hard-steel
                       [default: date2006]
    --dh-max A_PER_M   timeless discretisation threshold      [default: 10]
    --peak A_PER_M     triangular major-loop peak             [default: 10000]
    --step A_PER_M     field step of the stimulus             [default: 10]
    --cycles N         full triangular cycles                 [default: 1]
    --fig1             use the paper's Fig. 1 stimulus (major sweep + nested
                       minor loops) instead of --peak/--cycles
    --format FORMAT    ascii | csv | json                     [default: ascii]
    --width N          ascii plot width                       [default: 72]
    --height N         ascii plot height                      [default: 24]
    --timings          include runtime_ns in the JSON report
    --out PATH         write to PATH instead of stdout

The JSON report is `kind: \"sweep\"` — the envelope plus one scenario entry
(see `ja --help` for the schema).  CSV columns are h, b, m.";

/// Runs the subcommand.
///
/// # Errors
///
/// Usage errors for bad options; failures for scenario or output errors.
pub fn run(args: &[String]) -> Result<(), CliError> {
    let parsed = opts::parse(
        args,
        &["fig1", "timings"],
        &[
            "backend", "material", "dh-max", "peak", "step", "cycles", "format", "width", "height",
            "out",
        ],
    )?;
    parsed.no_positionals()?;

    let spec = GridSpec::cell(
        parsed.value("material"),
        parsed.value("backend"),
        parsed.optional_f64("dh-max")?,
    )?
    .named_excitation(stimulus(&parsed, 10.0)?);
    run_single(&parsed, "sweep", spec)
}
