//! `ja batch` — run a scenario grid in parallel, emit the batch report.
//!
//! Two output formats share one execution engine, and both render every
//! entry on its worker (memory stays flat in the samples per entry): the
//! default `json` format buffers the rendered entries and writes one
//! pretty-printed report document, while `--format ndjson` streams one
//! compact record per grid entry as workers finish and can
//! checkpoint/resume long runs — see `docs/SCHEMA.md` for the record,
//! manifest and checkpoint schemas.

use std::fs;
use std::io::{self, BufWriter, Seek, SeekFrom, Write};

use hdl_models::exec::BatchRunner;
use hdl_models::report::{run_batch_report, write_ndjson_batch, StreamCheckpoint};
use hdl_models::scenario::Scenario;

use crate::common::{read_input, write_output};
use crate::{grid_config, opts, CliError};

/// Per-subcommand help (see `ja help batch`).
pub const HELP: &str = "\
ja batch — run a scenario grid in parallel and emit a batch report

USAGE:
    ja batch --config PATH [OPTIONS]

OPTIONS:
    --config PATH      grid config file (required; format below)
    --workers N        worker threads; 0 = one per core        [default: 0]
    --fail-fast        stop scheduling after the first failure (unexecuted
                       scenarios are reported as status \"cancelled\")
    --routing MODE     how same-shaped scenarios are executed [default: auto]
                         auto    groups of >= 2 timeless non-circuit
                                 scenarios sharing a config, an excitation
                                 and an operating point (temperature,
                                 geometry) run as one structure-of-arrays
                                 lockstep sweep; everything else runs
                                 scalar
                         soa     lockstep even for singleton groups
                         scalar  always one scenario at a time
                       Routing never changes report content: SoA f64 lanes
                       are bit-identical to scalar runs.
    --format FMT       report format                           [default: json]
                         json    one pretty-printed kind:\"batch\" document;
                                 each entry is rendered as it completes
                                 and only the rendered entries are
                                 buffered until the whole grid has run
                         ndjson  streaming: one compact record per grid
                                 entry as it completes, then a final
                                 kind:\"batch_manifest\" line carrying the
                                 entries digest (see docs/SCHEMA.md).
                                 Byte-identical for any --workers/--routing
                                 value; never carries timing fields.
    --timings          (json only) include the run-dependent timing fields
                       (per-entry wall_clock_ns/runtime_ns and a trailing
                       `timing` object). Off by default so the report is
                       byte-identical for any --workers value.
    --out PATH         write to PATH instead of stdout
    --output PATH      synonym of --out (ndjson checkpoints require a real
                       file: they record a byte offset into it)
    --checkpoint-every N
                       with --format ndjson --output: every N records,
                       flush the report file and atomically rewrite
                       PATH.checkpoint; 0 disables checkpointing
                       [default: 256]. The checkpoint file is deleted when
                       the run completes.
    --resume PATH      continue an interrupted ndjson run from its
                       checkpoint file: the report file is truncated to the
                       checkpointed byte offset (discarding any torn tail),
                       already-emitted entries are skipped, and the final
                       file is byte-identical to an uninterrupted run

GRID CONFIG (`key = value` lines; `#` comments; repeat a key to add a value
to that axis, the grid is the cartesian product of all axes):
    material   = date2006 | ja1984 | soft-ferrite | hard-steel
    backend    = direct | systemc | ams | time-domain | all | timeless
    dh_max     = <A/m>                          (one model config per value)
    excitation = major  peak=10000 step=100 cycles=1
    excitation = fig1   step=50
    excitation = biased bias=1000 amplitude=500 cycles=1 step=10
    excitation = degauss h_start=10000 h_stop=100 decay=0.5 step=10
    excitation = circuit source=sine|triangular|pwm amplitude=30
                 frequency=50 duty=0.5 r=1 turns=200 area=1e-4 path=0.1
                 t_end=0.04 dt=5e-5 control=fixed|adaptive
                 (duty applies to source=pwm only)
    temperature = -40:25:125    operating-point axis (degC, colon-separated
                                list, repeatable); material parameters are
                                resolved through each material's thermal
                                coefficients before simulation, and every
                                scenario key gains a fifth `/t<degC>`
                                segment
    geometry   = area=1e-4 path=0.1 frequency=50 lamination=silicon-steel
                                one core geometry shared by every operating
                                point; with a frequency the report entries
                                carry a `loss` object (lamination adds the
                                eddy-current term).  Without a temperature
                                axis it contributes a single `geom` point.
Omitted axes default to date2006 / the direct backend / ΔH_max = 10 A/m;
at least one excitation is required.  Without `temperature`/`geometry`
lines the report is byte-identical to one produced before those axes
existed.

EXIT STATUS: 0 when every scenario succeeded, 1 otherwise (the report is
written either way).";

/// Runs the subcommand.
///
/// # Errors
///
/// Usage errors for bad options or config; failure when any scenario
/// failed (after writing the report) or output fails.
pub fn run(args: &[String]) -> Result<(), CliError> {
    let parsed = opts::parse(
        args,
        &["fail-fast", "timings"],
        &[
            "config",
            "workers",
            "routing",
            "out",
            "format",
            "output",
            "resume",
            "checkpoint-every",
        ],
    )?;
    parsed.no_positionals()?;

    let out_path = match (parsed.value("out"), parsed.value("output")) {
        (Some(_), Some(_)) => {
            return Err(CliError::usage(
                "--out and --output are synonyms; give only one",
            ))
        }
        (out, output) => out.or(output),
    };

    let config_text = read_input(parsed.require("config")?)?;
    let grid = grid_config::parse_grid(&config_text)?;
    let scenarios = grid
        .scenarios()
        .map_err(|err| CliError::usage(err.to_string()))?;

    let mut runner = BatchRunner::new()
        .workers(parsed.usize_or("workers", 0)?)
        .soa_routing(crate::common::routing_by_name(
            parsed.value("routing").unwrap_or("auto"),
        )?);
    if parsed.flag("fail-fast") {
        runner = runner.fail_fast();
    }

    match parsed.value("format").unwrap_or("json") {
        "json" => {
            for opt in ["resume", "checkpoint-every"] {
                if parsed.value(opt).is_some() {
                    return Err(CliError::usage(format!("--{opt} requires --format ndjson")));
                }
            }
            let (doc, summary) = run_batch_report(&runner, &scenarios, parsed.flag("timings"));
            write_output(out_path, &doc.to_pretty_string())?;
            scenarios_failed(summary.failed, summary.scenarios)
        }
        "ndjson" => run_ndjson(&parsed, &runner, &scenarios, out_path),
        other => Err(CliError::usage(format!(
            "--format expects json | ndjson, got `{other}`"
        ))),
    }
}

/// The streaming path: NDJSON records to stdout or to `--output PATH`
/// with optional checkpointing and resume.
fn run_ndjson(
    parsed: &opts::Parsed,
    runner: &BatchRunner,
    scenarios: &[Scenario],
    output: Option<&str>,
) -> Result<(), CliError> {
    if parsed.flag("timings") {
        return Err(CliError::usage(
            "--timings is not available with --format ndjson (records are byte-deterministic \
             and never carry timing fields)",
        ));
    }
    let checkpoint_every = parsed.usize_or("checkpoint-every", 256)?;

    let Some(output) = output else {
        if parsed.value("resume").is_some() || parsed.value("checkpoint-every").is_some() {
            return Err(CliError::usage(
                "--resume/--checkpoint-every need --output PATH: a checkpoint records a byte \
                 offset into the report file",
            ));
        }
        let stdout = io::stdout();
        let mut out = BufWriter::new(stdout.lock());
        let state = write_ndjson_batch(runner, scenarios, None, &mut out, |_, _| Ok(()))
            .and_then(|state| out.flush().map(|()| state))
            .map_err(|err| CliError::failure(format!("cannot stream report: {err}")))?;
        return scenarios_failed(state.failed, scenarios.len());
    };

    let resume = match parsed.value("resume") {
        None => None,
        Some(path) => {
            let text = read_input(path)?;
            Some(StreamCheckpoint::parse(&text).map_err(|err| {
                CliError::failure(format!("invalid checkpoint file `{path}`: {err}"))
            })?)
        }
    };

    let file = match &resume {
        // Resume appends after the checkpointed offset; anything past it
        // is a torn record from the interrupted run and is discarded.
        Some(checkpoint) => fs::OpenOptions::new()
            .write(true)
            .open(output)
            .and_then(|file| {
                file.set_len(checkpoint.byte_offset)?;
                let mut file = file;
                file.seek(SeekFrom::End(0))?;
                Ok(file)
            }),
        None => fs::File::create(output),
    }
    .map_err(|err| CliError::failure(format!("cannot open `{output}`: {err}")))?;

    let checkpoint_path = format!("{output}.checkpoint");
    let mut out = BufWriter::new(file);
    let state = write_ndjson_batch(
        runner,
        scenarios,
        resume.as_ref(),
        &mut out,
        |state, out| {
            if checkpoint_every > 0 && state.entries % checkpoint_every == 0 {
                // Order matters for crash safety: the report bytes the
                // checkpoint's offset points at must be durable in the file
                // before the checkpoint claims them.
                out.flush()?;
                write_checkpoint(&checkpoint_path, state)?;
            }
            Ok(())
        },
    )
    .and_then(|state| out.flush().map(|()| state))
    .map_err(|err| CliError::failure(format!("cannot write `{output}`: {err}")))?;

    // A completed run needs no checkpoint; leaving one behind would
    // invite a pointless resume of a finished grid.
    match fs::remove_file(&checkpoint_path) {
        Ok(()) => {}
        Err(err) if err.kind() == io::ErrorKind::NotFound => {}
        Err(err) => {
            return Err(CliError::failure(format!(
                "cannot remove `{checkpoint_path}`: {err}"
            )))
        }
    }
    scenarios_failed(state.failed, scenarios.len())
}

/// Atomically replaces the checkpoint file (write-to-temporary, rename):
/// a crash mid-write must never leave a half-written checkpoint where a
/// resume would read it.
fn write_checkpoint(path: &str, state: &StreamCheckpoint) -> io::Result<()> {
    let tmp = format!("{path}.tmp");
    fs::write(&tmp, state.to_json().to_pretty_string())?;
    fs::rename(&tmp, path)
}

/// The shared exit policy: the report is already written, so failures
/// only decide the exit status.
fn scenarios_failed(failed: usize, total: usize) -> Result<(), CliError> {
    if failed > 0 {
        return Err(CliError::failure(format!(
            "{failed} of {total} scenarios did not succeed"
        )));
    }
    Ok(())
}
