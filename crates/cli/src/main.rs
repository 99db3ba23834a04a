//! `ja` — the executable front door of the timeless Jiles–Atherton
//! reproduction (Al-Junaid & Kazmierski, DATE 2006).
//!
//! The library crates already provide the machinery (scenario grids, the
//! parallel batch runner, fitting, the inverse solve, CSV/ASCII export);
//! this binary exposes it behind a stable command-line and one versioned,
//! machine-readable JSON report format that CI and services can consume.
//! The `REPORT SCHEMA` section of [`GLOBAL_HELP`] is the schema's
//! human-readable source of truth; the constants live in
//! `ja_hysteresis::json`.

mod commands;
mod common;
mod grid_config;
mod opts;
mod serve_api;

use std::process::ExitCode;

/// A CLI failure: what to print and which exit code to use.
#[derive(Debug)]
pub struct CliError {
    /// Message printed to stderr (prefixed with `ja:`).
    pub message: String,
    /// Process exit code: 2 for usage errors, 1 for runtime failures.
    pub code: u8,
}

impl CliError {
    /// A usage error (exit code 2): the invocation itself is wrong.
    pub fn usage(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
            code: 2,
        }
    }

    /// A runtime failure (exit code 1): the invocation was fine, the work
    /// failed.
    pub fn failure(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
            code: 1,
        }
    }
}

impl From<ja_hysteresis::error::JaError> for CliError {
    fn from(err: ja_hysteresis::error::JaError) -> Self {
        CliError::failure(err.to_string())
    }
}

/// Global help text.  The `REPORT SCHEMA` section doubles as the
/// authoritative field-by-field description of the machine-readable report
/// format (`ja_hysteresis::json::SCHEMA_VERSION` = 1); the README's schema
/// table is derived from it, and the CLI's integration tests assert the
/// emitted documents against these fields.
pub const GLOBAL_HELP: &str = "\
ja — timeless Jiles–Atherton hysteresis toolkit (DATE 2006 reproduction)

USAGE:
    ja <SUBCOMMAND> [OPTIONS]
    ja help <SUBCOMMAND>

SUBCOMMANDS:
    sweep       Run one scenario and export the BH trace (ascii | csv | json)
    transient   Run one circuit-driven scenario through the transient engine
    batch       Run a scenario grid in parallel, emit a batch report (JSON)
    lossmap     Frequency x amplitude x temperature loss map with a fitted
                Steinmetz law per material (JSON)
    fit         Fit JA parameters to a measured BH loop (CSV in, JSON out)
    inverse     Flux-driven solve: target B trace in, required H trace out
    compare     Backend-agreement table across implementation styles
    bench-gate  Diff two bench reports, fail on perf regressions
    serve       Long-running evaluation service with a content-addressed
                result cache (wire protocol: docs/PROTOCOL.md)
    bench-serve Load-generate against the service (req/s, p50/p99)

OPTIONS:
    -h, --help      This help (per-subcommand: `ja help <SUBCOMMAND>`)
    -V, --version   Version

REPORT SCHEMA (schema_version 1)
  Every JSON report opens with the shared envelope:
    schema_version  int     1; bumped on any breaking schema change
    kind            string  batch | sweep | transient | fit | inverse |
                            compare | bench | loss_map, the streaming
                            documents batch_manifest | batch_checkpoint,
                            plus the serve-only documents error | health |
                            shutdown and the request kinds batch_request |
                            fit_request | sweep_request |
                            transient_request (docs/PROTOCOL.md has the
                            serve side; docs/SCHEMA.md consolidates all of
                            it in one table)

  kind=batch (ja batch):
    scenarios   int    grid size
    succeeded   int    entries with status ok
    failed      int    errors + cancellations
    entries     array  one object per scenario, in input order:
      scenario    string       \"<excitation>/<backend>/<config>/<material>\"
      status      string       ok | error | cancelled
      error       string       failure message     (status != ok only)
      backend     string       backend label       (status = ok only)
      samples     int          BH-trace length     (status = ok only)
      metrics     object|null  loop metrics; null when the trace does not
                               form a closable loop (status = ok only)
      stats       object       backend cost counters (status = ok only)
      transient   object       transient-engine counters; present only for
                               circuit-driven scenarios.  Deterministic
                               step-control outcomes, NOT timings, so they
                               are never gated behind --timings.
      temperature_c float      the scenario's operating temperature; only
                               for scenarios pinned to an operating point
                               that sets one (grid `temperature = ...`).
                               Material parameters were resolved through
                               the material's thermal coefficients before
                               simulation (see docs/ARCHITECTURE.md).
      frequency_hz  float      the operating point's electrical frequency
                               (grid `geometry = ... frequency=...`)
      loss        object       core-loss breakdown; present when the
                               operating point carries a geometry and a
                               frequency: hysteresis_w, eddy_w, total_w,
                               energy_per_cycle_j.  Deterministic (derived
                               from the BH trace), never gated behind
                               --timings.
      settled_newton_iterations
                  int          ONLY with --timings, and only for
                               circuit-driven scenarios: the part of
                               transient.newton_iterations the solver
                               settled from a bit-exact repeat of an
                               earlier iterate instead of solving.
      kernel      object       ONLY with --timings, and only for the
                               event-kernel backend: delta_cycles,
                               events_scheduled, process_activations.
                               Deterministic substrate-cost counters, but
                               they describe the simulation machinery
                               rather than the physics, so they ride with
                               the timing fields.
    timing      object  ONLY with --timings: workers, elapsed_ns,
                        serial_ns, speedup (plus per-entry wall_clock_ns /
                        runtime_ns, and for entries executed as a
                        structure-of-arrays lockstep lane,
                        backend_routing: \"soa\" with lockstep_lanes,
                        the lanes in the entry's job).
                        Omitted by default so reports are byte-identical
                        across --workers values AND across --routing
                        modes (SoA f64 lanes are bit-identical to scalar
                        runs).

  Streamed batch NDJSON (ja batch --format ndjson; served batch_request
  with options.stream true — both surfaces share one writer, so the
  bytes are identical):
    one compact record line per grid entry, in index order (so the
    stream is byte-identical across --workers values), each the batch
    entry object above prefixed with
      index       int    the entry's position in the grid
    and NEVER carrying timings; sealed by a final manifest line:
    kind=batch_manifest: scenarios, succeeded, failed, entries_digest
      (32 hex digits: 128-bit FNV-1a over every preceding record line's
      bytes — equal manifests imply byte-identical streams; a stream
      without a final manifest line is truncated).
    kind=batch_checkpoint (the --output sidecar file, written atomically
      every --checkpoint-every records and deleted on completion;
      consumed by --resume): grid_digest (32 hex digits; refuses a
      foreign grid), entries, byte_offset (the output is truncated back
      to this offset on resume, discarding a torn trailing record),
      succeeded, failed, digest_state (suspended digest, so the resumed
      run's entries_digest still covers every record from entry 0).
      A resumed run's output is byte-identical to an uninterrupted one.

  metrics object (keys from magnetics::LoopMetrics::named_values):
    b_max_t, h_max_a_per_m, coercivity_a_per_m, remanence_t,
    loop_area_j_per_m3, negative_slope_samples

  stats object (keys mirror ja_hysteresis::model::JaStatistics):
    samples, updates, slope_evaluations, negative_slope_events,
    rejected_updates

  transient object (keys mirror analog_solver::circuit::TransientStats):
    accepted_steps, rejected_steps, newton_iterations, lu_solves,
    non_converged_steps (the Newton and LU counts are iterations of the
    Newton recurrence, settled ones included)

  kind=sweep (ja sweep --format json): envelope + one entry (fields as in
    a batch entry).
  kind=transient (ja transient --format json): envelope + one entry
    (fields as in a batch entry, transient object included).
  kind=fit (ja fit): starts, seed, then per fitted loop: loop (name),
    input_samples, h_peak_a_per_m, measured (metrics object), entries
    (array, one per starting point: start (params object), status
    ok | error, cost, evaluations, params), best_start (int | null),
    params {m_sat_a_per_m, a_a_per_m, a2_a_per_m, k_a_per_m, alpha, c}
    (the best start's; null if every start failed), cost, evaluations
    (total).  `ja fit --input` inlines its single loop's fields flat;
    `ja fit --config` nests one such object per loop under `loops`.
    Timing fields (per-start wall_clock_ns, trailing `timing` object —
    for lockstep-routed fits with backend_routing: \"soa\" and
    lockstep_lanes) appear only with --timings, so default reports are
    byte-identical for any --workers value and any --routing mode.
  kind=inverse (ja inverse --format json): samples, h_peak_a_per_m,
    b_peak_t, metrics (object|null).
  kind=loss_map (ja lossmap): points, succeeded, failed, entries (array,
    one per frequency x amplitude x temperature x material point, in grid
    order: scenario, status, material, peak_h_a_per_m, frequency_hz,
    temperature_c, b_pk_t, loss object), fits (array, one per material:
    material, points, then the two-exponent Steinmetz fit
    P = k * f^alpha * B_pk^beta as k, alpha, beta — or error when the map
    does not constrain the fit).  Byte-identical for any --workers /
    --routing value.
  kind=compare (ja compare --format json): max_abs_diff_b_t,
    relative_diff, worst_pair (array of 2 labels | null), outcomes (array
    of entries).
  kind=bench (criterion stand-in --json and ja bench-serve --json,
    consumed by ja bench-gate): benches {bench id -> median ns/iteration}.

  Served documents (ja serve; wire framing in docs/PROTOCOL.md):
    kind=error (any non-200 response): status (int, mirrors the HTTP
      status), error (string message).
    kind=health (GET /v1/health): status \"ok\", eval_workers, cache
      {entries, bytes, budget_bytes, hits, misses, evictions}.
    kind=shutdown (POST /v1/shutdown): draining true.
    POST /v1/eval request kinds batch_request | fit_request |
      sweep_request | transient_request produce byte-identical bodies to
      the offline batch | fit | sweep | transient reports above.

EXIT STATUS: 0 success; 1 runtime failure (including batch scenario
failures and bench-gate regressions); 2 usage error.";

fn run(args: &[String]) -> Result<(), CliError> {
    let Some(subcommand) = args.first() else {
        return Err(CliError::usage(format!(
            "missing subcommand\n\n{GLOBAL_HELP}"
        )));
    };
    let rest = &args[1..];
    match subcommand.as_str() {
        "-h" | "--help" => print_line(GLOBAL_HELP),
        "-V" | "--version" => print_line(&format!("ja {}", env!("CARGO_PKG_VERSION"))),
        "help" => {
            let topic = rest.first().map(String::as_str);
            let text = match topic {
                None => GLOBAL_HELP,
                Some("sweep") => commands::sweep::HELP,
                Some("transient") => commands::transient::HELP,
                Some("batch") => commands::batch::HELP,
                Some("lossmap") => commands::lossmap::HELP,
                Some("fit") => commands::fit::HELP,
                Some("inverse") => commands::inverse::HELP,
                Some("compare") => commands::compare::HELP,
                Some("bench-gate") => commands::bench_gate::HELP,
                Some("serve") => commands::serve::HELP,
                Some("bench-serve") => commands::bench_serve::HELP,
                Some(other) => {
                    return Err(CliError::usage(format!("unknown subcommand `{other}`")))
                }
            };
            print_line(text)
        }
        command if wants_help(rest) => {
            let text = match command {
                "sweep" => commands::sweep::HELP,
                "transient" => commands::transient::HELP,
                "batch" => commands::batch::HELP,
                "lossmap" => commands::lossmap::HELP,
                "fit" => commands::fit::HELP,
                "inverse" => commands::inverse::HELP,
                "compare" => commands::compare::HELP,
                "bench-gate" => commands::bench_gate::HELP,
                "serve" => commands::serve::HELP,
                "bench-serve" => commands::bench_serve::HELP,
                other => return Err(CliError::usage(format!("unknown subcommand `{other}`"))),
            };
            print_line(text)
        }
        "sweep" => commands::sweep::run(rest),
        "transient" => commands::transient::run(rest),
        "batch" => commands::batch::run(rest),
        "lossmap" => commands::lossmap::run(rest),
        "fit" => commands::fit::run(rest),
        "inverse" => commands::inverse::run(rest),
        "compare" => commands::compare::run(rest),
        "bench-gate" => commands::bench_gate::run(rest),
        "serve" => commands::serve::run(rest),
        "bench-serve" => commands::bench_serve::run(rest),
        other => Err(CliError::usage(format!(
            "unknown subcommand `{other}` (see `ja --help`)"
        ))),
    }
}

/// Prints help or version text and a newline to stdout, failing cleanly
/// (not panicking) when stdout is closed.
fn print_line(text: &str) -> Result<(), CliError> {
    common::write_output(None, &format!("{text}\n"))
}

fn wants_help(args: &[String]) -> bool {
    args.iter().any(|arg| arg == "-h" || arg == "--help")
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(err) => {
            eprintln!("ja: {}", err.message);
            ExitCode::from(err.code)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_subcommand_is_a_usage_error() {
        let err = run(&["transmogrify".to_owned()]).unwrap_err();
        assert_eq!(err.code, 2);
        assert!(err.message.contains("transmogrify"));
        assert!(run(&[]).is_err());
    }

    #[test]
    fn help_text_documents_the_schema() {
        // The help is the schema's source of truth: every envelope kind and
        // every metrics/stats key must appear in it.
        for needle in [
            "schema_version",
            "batch | sweep | transient | fit | inverse |",
            "compare | bench",
            "accepted_steps",
            "non_converged_steps",
            "b_max_t",
            "h_max_a_per_m",
            "coercivity_a_per_m",
            "remanence_t",
            "loop_area_j_per_m3",
            "negative_slope_samples",
            "slope_evaluations",
            "rejected_updates",
            "wall_clock_ns",
            "delta_cycles",
            "settled_newton_iterations",
            "events_scheduled",
            "process_activations",
            "m_sat_a_per_m",
            "backend_routing",
            "lockstep_lanes",
            "batch_manifest",
            "entries_digest",
            "batch_checkpoint",
            "grid_digest",
            "digest_state",
            "loss_map",
            "temperature_c",
            "frequency_hz",
            "hysteresis_w",
            "eddy_w",
            "total_w",
            "energy_per_cycle_j",
            "b_pk_t",
            "alpha, beta",
        ] {
            assert!(GLOBAL_HELP.contains(needle), "missing `{needle}`");
        }
    }

    #[test]
    fn schema_keys_in_help_match_the_library() {
        use magnetics::loop_analysis::loop_metrics;
        // Generate real metrics and confirm every key the library emits is
        // documented in the help text.
        let outcome = hdl_models::scenario::Scenario::fig1(
            hdl_models::scenario::BackendKind::DirectTimeless,
            250.0,
        )
        .unwrap()
        .run()
        .unwrap();
        let metrics = loop_metrics(&outcome.curve).unwrap();
        for (key, _) in metrics.named_values() {
            assert!(GLOBAL_HELP.contains(key), "undocumented metric key `{key}`");
        }
    }
}
