//! `ja compare` — backend-agreement table across implementation styles.

use hdl_models::report::agreement_value;
use hdl_models::scenario::backend_agreement;

use crate::common::{backend_set_by_name, material_by_name, model_config, stimulus, write_output};
use crate::{opts, CliError};

/// Per-subcommand help (see `ja help compare`).
pub const HELP: &str = "\
ja compare — run the same stimulus on several backends and compare

USAGE:
    ja compare [OPTIONS]

OPTIONS:
    --backends SET     all | timeless | a single backend name [default: all]
    --material NAME    date2006 | ja1984 | soft-ferrite | hard-steel
                       [default: date2006]
    --dh-max A_PER_M   discretisation threshold               [default: 10]
    --peak A_PER_M     triangular major-loop peak             [default: 10000]
    --step A_PER_M     field step of the stimulus             [default: 50]
    --cycles N         full triangular cycles                 [default: 1]
    --fig1             use the paper's Fig. 1 stimulus
    --format FORMAT    table | json                           [default: table]
    --timings          include runtime_ns in the JSON report
    --out PATH         write to PATH instead of stdout

The three timeless styles (direct, systemc, ams) are expected to agree to
within ~1% of peak B; the time-domain baseline is the conventional
formulation the paper compares against.  The JSON report is
`kind: \"compare\"`: max_abs_diff_b_t, relative_diff, worst_pair and one
entry per backend.";

/// Runs the subcommand.
///
/// # Errors
///
/// Usage errors for bad options; failures when any backend fails to run.
pub fn run(args: &[String]) -> Result<(), CliError> {
    let parsed = opts::parse(
        args,
        &["fig1", "timings"],
        &[
            "backends", "material", "dh-max", "peak", "step", "cycles", "format", "out",
        ],
    )?;
    parsed.no_positionals()?;

    let backends = backend_set_by_name(parsed.value("backends").unwrap_or("all"))?;
    let (params, _) = material_by_name(parsed.value("material").unwrap_or("date2006"))?;
    let (_, config) = model_config(parsed.f64_or("dh-max", 10.0)?)?;
    let named = stimulus(&parsed, 50.0)?;

    let report = backend_agreement(params, config, &named.excitation, &backends)
        .map_err(|err| CliError::failure(err.to_string()))?;

    let out = parsed.value("out");
    match parsed.value("format").unwrap_or("table") {
        "json" => write_output(
            out,
            &agreement_value(&report, parsed.flag("timings")).to_pretty_string(),
        ),
        "table" => {
            let mut text = format!("stimulus: {}\n\n", named.name);
            text.push_str(&format!(
                "{:<24} {:>8} {:>10} {:>12} {:>10} {:>14}\n",
                "backend", "samples", "B_max (T)", "Hc (A/m)", "Br (T)", "area (J/m3)"
            ));
            for outcome in &report.outcomes {
                match &outcome.metrics {
                    Some(m) => text.push_str(&format!(
                        "{:<24} {:>8} {:>10.4} {:>12.2} {:>10.4} {:>14.1}\n",
                        outcome.backend.label(),
                        outcome.curve.len(),
                        m.b_max.as_tesla(),
                        m.coercivity.value(),
                        m.remanence.as_tesla(),
                        m.loop_area,
                    )),
                    None => text.push_str(&format!(
                        "{:<24} {:>8} {:>10} {:>12} {:>10} {:>14}\n",
                        outcome.backend.label(),
                        outcome.curve.len(),
                        "-",
                        "-",
                        "-",
                        "-",
                    )),
                }
            }
            text.push_str(&format!(
                "\nworst pairwise |dB|: {:.6} T ({:.4}% of peak B)\n",
                report.max_abs_diff_b,
                report.relative_diff * 100.0
            ));
            if let Some((a, b)) = report.worst_pair {
                text.push_str(&format!("worst pair: {} vs {}\n", a.label(), b.label()));
            }
            write_output(out, &text)
        }
        other => Err(CliError::usage(format!(
            "unknown format `{other}` (expected table | json)"
        ))),
    }
}
