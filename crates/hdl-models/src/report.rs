//! Versioned, machine-readable serialization of scenario/batch results.
//!
//! This module turns the scenario engine's in-memory results
//! ([`BatchReport`], [`ScenarioOutcome`], [`AgreementReport`]) into the
//! workspace's shared JSON report format (see [`ja_hysteresis::json`]): an
//! envelope of `schema_version` + `kind` followed by kind-specific fields.
//! The `ja` CLI emits these documents and CI consumes them, so two
//! properties are load-bearing:
//!
//! * **Determinism.** By default every timing-dependent field (wall-clock,
//!   worker count, speedup) is omitted, so the same scenario grid produces
//!   byte-identical reports regardless of worker count or machine load —
//!   `ja batch --workers 1` and `--workers 8` are asserted identical in the
//!   CLI's tests.  Passing `timings: true` opts into a `timing` object and
//!   per-entry `*_ns` fields for profiling consumers.
//! * **Stable keys.** Metric keys come from
//!   [`LoopMetrics::named_values`], statistics keys mirror
//!   [`JaStatistics`] field names; both are part of the schema and only
//!   change with a [`SCHEMA_VERSION`] bump.

use std::cell::RefCell;
use std::time::{Duration, Instant};

use ja_hysteresis::backend::KernelStatistics;
use ja_hysteresis::error::JaError;
use ja_hysteresis::json::{
    content_hash, JsonSink, JsonValue, JsonWriter, StreamDigest, SCHEMA_VERSION, SCHEMA_VERSION_KEY,
};
use ja_hysteresis::model::JaStatistics;
use magnetics::loop_analysis::LoopMetrics;
use magnetics::losses::CoreLoss;
use magnetics::material::JaParameters;

use crate::exec::{speedup_estimate, BatchRunner, StreamSummary};
use crate::fit::{FitReport, LoopFit, StartFit};
use crate::scenario::{AgreementReport, BatchReport, Scenario, ScenarioOutcome, TransientStats};

// Each batch-entry object is described once, by a function generic over
// a `JsonSink`: a `JsonWriter` renders the description as text (NDJSON
// records and the entries of a stored report), a `JsonBuilder` turns it
// into the `JsonValue` the `*_value` functions return.

/// A fresh report object carrying the shared envelope: `schema_version`
/// first, then `kind`.
pub fn report_envelope(kind: &str) -> JsonValue {
    JsonValue::build(|s| {
        s.begin_object();
        envelope_fields(s, kind);
        s.end_object();
    })
}

fn envelope_fields<S: JsonSink>(s: &mut S, kind: &str) {
    s.field(SCHEMA_VERSION_KEY, SCHEMA_VERSION);
    s.field_str("kind", kind);
}

/// Serialises loop metrics with the schema's unit-suffixed keys.
///
/// `negative_slope_samples` is written as an integer; the other five
/// metrics as floats.
pub fn metrics_value(metrics: &LoopMetrics) -> JsonValue {
    JsonValue::build(|s| describe_metrics(s, metrics))
}

fn describe_metrics<S: JsonSink>(s: &mut S, metrics: &LoopMetrics) {
    s.begin_object();
    for (key, value) in metrics.named_values() {
        if key == "negative_slope_samples" {
            s.field(key, value as i64);
        } else {
            s.field(key, value);
        }
    }
    s.end_object();
}

/// The backend cost counters (keys mirror the [`JaStatistics`] field
/// names).
fn describe_stats<S: JsonSink>(s: &mut S, stats: &JaStatistics) {
    s.begin_object();
    s.field("samples", stats.samples);
    s.field("updates", stats.updates);
    s.field("slope_evaluations", stats.slope_evaluations);
    s.field("negative_slope_events", stats.negative_slope_events);
    s.field("rejected_updates", stats.rejected_updates);
    s.end_object();
}

/// Serialises the transient engine's step/Newton counters (keys mirror the
/// [`TransientStats`] field names).  Present only on circuit-driven
/// scenario entries; the counters are pure float-arithmetic step-control
/// outcomes — deterministic across worker counts and machines — so they
/// are NOT gated behind the opt-in timing fields.
pub fn transient_value(stats: &TransientStats) -> JsonValue {
    JsonValue::build(|s| describe_transient(s, stats))
}

fn describe_transient<S: JsonSink>(s: &mut S, stats: &TransientStats) {
    s.begin_object();
    s.field("accepted_steps", stats.accepted_steps);
    s.field("rejected_steps", stats.rejected_steps);
    s.field("newton_iterations", stats.newton_iterations);
    s.field("lu_solves", stats.lu_solves);
    s.field("non_converged_steps", stats.non_converged_steps);
    s.end_object();
}

/// The simulation kernel's cost counters of an event-driven backend.
fn describe_kernel<S: JsonSink>(s: &mut S, kernel: &KernelStatistics) {
    s.begin_object();
    s.field("delta_cycles", kernel.delta_cycles);
    s.field("events_scheduled", kernel.events_scheduled);
    s.field("process_activations", kernel.process_activations);
    s.end_object();
}

/// A [`Duration`] as integer nanoseconds (saturating at `i64::MAX`, which
/// is ~292 years — no real run gets there).
fn nanos(duration: Duration) -> i64 {
    i64::try_from(duration.as_nanos()).unwrap_or(i64::MAX)
}

/// Serialises a core-loss breakdown (keys mirror the [`CoreLoss`] field
/// names).  Present only on entries whose scenario ran at an operating
/// point carrying a geometry and a frequency; the values are pure float
/// arithmetic over the trace — deterministic across worker counts and
/// routing — so the object is NOT gated behind the opt-in timing fields.
pub fn loss_value(loss: &CoreLoss) -> JsonValue {
    JsonValue::build(|s| describe_loss(s, loss))
}

fn describe_loss<S: JsonSink>(s: &mut S, loss: &CoreLoss) {
    s.begin_object();
    s.field("hysteresis_w", loss.hysteresis_w);
    s.field("eddy_w", loss.eddy_w);
    s.field("total_w", loss.total_w);
    s.field("energy_per_cycle_j", loss.energy_per_cycle_j);
    s.end_object();
}

/// Serialises one successful scenario outcome.
///
/// Always present: `scenario`, `status: "ok"`, `backend`, `samples` (the
/// samples stepped, `stats.samples` — an `ok` outcome's trace length, so
/// an outcome that dropped its curve renders the same), `metrics` (object
/// or `null` for traces that do not form a closable loop) and `stats`.
/// Circuit-driven outcomes add a `transient` object
/// (see [`transient_value`]).  Outcomes carrying an operating point add
/// `temperature_c` and/or `frequency_hz` (whichever the point sets), and a
/// `loss` object (see [`loss_value`]) when the loss breakdown was
/// computed.  With `timings`, adds `runtime_ns` (sweep
/// only); for outcomes produced by a structure-of-arrays lockstep job,
/// `backend_routing: "soa"` plus `lockstep_lanes`; for circuit-driven
/// outcomes, `settled_newton_iterations` (the part of the transient's
/// `newton_iterations` settled from a repeated iterate); and for event-driven
/// backends, a `kernel` object with the simulation kernel's cost counters
/// (`delta_cycles`, `events_scheduled`, `process_activations`).
pub fn outcome_value(outcome: &ScenarioOutcome, timings: bool) -> JsonValue {
    JsonValue::build(|s| {
        s.begin_object();
        outcome_fields(s, outcome, timings);
        s.end_object();
    })
}

/// The members of an [`outcome_value`] object, written into an open one.
fn outcome_fields<S: JsonSink>(s: &mut S, outcome: &ScenarioOutcome, timings: bool) {
    s.field_str("scenario", &outcome.name);
    s.field_str("status", "ok");
    s.field_str("backend", outcome.backend.label());
    s.field("samples", outcome.stats.samples);
    s.key("metrics");
    match &outcome.metrics {
        Some(metrics) => describe_metrics(s, metrics),
        None => s.null(),
    }
    s.key("stats");
    describe_stats(s, &outcome.stats);
    if let Some(transient) = &outcome.transient {
        s.key("transient");
        describe_transient(s, transient);
    }
    if let Some(op) = &outcome.operating_point {
        if let Some(t_c) = op.temperature_c {
            s.field("temperature_c", t_c);
        }
        if let Some(frequency) = op.frequency_hz {
            s.field("frequency_hz", frequency);
        }
    }
    if let Some(loss) = &outcome.loss {
        s.key("loss");
        describe_loss(s, loss);
    }
    if timings {
        s.field("runtime_ns", nanos(outcome.runtime));
        // Routing is run-dependent scheduling detail, not result content
        // (SoA f64 lanes are bit-identical to scalar runs), so it rides
        // with the opt-in timing fields.
        if let Some(lanes) = outcome.lockstep_lanes {
            s.field_str("backend_routing", "soa");
            s.field("lockstep_lanes", lanes);
        }
        // How much of `transient.newton_iterations` the solver settled
        // from a repeated iterate instead of solving: a cost of the solver,
        // not a step-control outcome, so it rides with the timing fields.
        if let Some(transient) = &outcome.transient {
            s.field("settled_newton_iterations", transient.settled_iterations);
        }
        // Kernel counters are deterministic outcomes, but they describe the
        // simulation substrate's cost, not the physics, so they ride with
        // the opt-in timing fields to keep default reports byte-stable.
        if let Some(kernel) = &outcome.kernel {
            s.key("kernel");
            describe_kernel(s, kernel);
        }
    }
}

/// The members of one batch entry (outcome or failure), written into an
/// open object — the object a stored `kind: "batch"` report lists and an
/// NDJSON record carries after its `index`.
///
/// Failed entries get `status: "error"` (or `"cancelled"` for entries a
/// fail-fast batch never ran) and an `error` message instead of the
/// outcome fields.  With `timings`, adds `wall_clock_ns` (backend
/// construction + sweep + metric extraction on the worker).
fn entry_fields<S: JsonSink>(
    s: &mut S,
    name: &str,
    outcome: &Result<ScenarioOutcome, JaError>,
    wall_clock: Duration,
    timings: bool,
) {
    match outcome {
        Ok(outcome) => outcome_fields(s, outcome, timings),
        Err(err) => {
            s.field_str("scenario", name);
            let status = if matches!(err, JaError::Cancelled) {
                "cancelled"
            } else {
                "error"
            };
            s.field_str("status", status);
            s.field_str("error", &err.to_string());
        }
    }
    if timings {
        s.field("wall_clock_ns", nanos(wall_clock));
    }
}

/// The text `write` appends to an empty string, as a string of exactly
/// its length.
///
/// The text is written into a per-thread scratch string first, which
/// keeps the capacity of the longest text rendered on its thread, so a
/// warm render allocates only the string it returns.
fn render(write: impl FnOnce(&mut String)) -> String {
    thread_local! {
        static SCRATCH: RefCell<String> = const { RefCell::new(String::new()) };
    }
    SCRATCH.with(|scratch| {
        let mut scratch = scratch.borrow_mut();
        scratch.clear();
        write(&mut scratch);
        scratch.as_str().to_owned()
    })
}

/// One NDJSON record line (newline-terminated) for grid entry `index`.
///
/// The record is the compact, insertion-ordered rendering of exactly the
/// entry object a stored `kind: "batch"` report would contain, prefixed
/// with the entry's grid `index` — records are emitted in index order, so a
/// streamed file is byte-identical across worker counts, and the index
/// makes each line self-identifying for consumers (and for resume
/// validation).  Timings are never included: streamed records are part of
/// the byte-determinism contract.
pub fn ndjson_record(
    index: usize,
    name: &str,
    outcome: &Result<ScenarioOutcome, JaError>,
) -> String {
    render(|out| {
        let mut record = JsonWriter::compact(out);
        record.begin_object();
        record.field("index", index);
        entry_fields(&mut record, name, outcome, Duration::ZERO, false);
        record.end_object();
        out.push('\n');
    })
}

/// One entry of a stored `kind: "batch"` report, rendered as
/// [`run_batch_report`] splices it into the `entries` array: indented for
/// its place two levels deep (document, `entries`, entry), with no
/// leading line break and no trailing separator.  Its compact form,
/// `index` aside, is the entry's [`ndjson_record`].
pub fn stored_entry(
    name: &str,
    outcome: &Result<ScenarioOutcome, JaError>,
    wall_clock: Duration,
    timings: bool,
) -> String {
    render(|out| {
        let mut entry = JsonWriter::indented(out, 2);
        entry.begin_object();
        entry_fields(&mut entry, name, outcome, wall_clock, timings);
        entry.end_object();
    })
}

/// The final NDJSON manifest line (newline-terminated): a
/// `kind: "batch_manifest"` document sealing the stream with the grid
/// size, the success/failure counts and `entries_digest` — the 128-bit
/// FNV-1a digest (32 hex digits) of every preceding record line's bytes in
/// index order.
///
/// Because records are emitted in index order, the digest doubles as a
/// whole-stream integrity check: two streams with equal manifests are
/// byte-identical, whatever worker count (or interrupt/resume history)
/// produced them.  A missing manifest line marks a truncated stream.
pub fn ndjson_manifest(
    scenarios: usize,
    succeeded: usize,
    failed: usize,
    digest: &StreamDigest,
) -> String {
    let mut line = report_envelope("batch_manifest")
        .with("scenarios", scenarios)
        .with("succeeded", succeeded)
        .with("failed", failed)
        .with("entries_digest", format!("{:032x}", digest.value()))
        .to_compact_string();
    line.push('\n');
    line
}

/// A stable content address for a scenario grid: the [`content_hash`] of
/// the JSON array of scenario names in grid order.  Scenario names encode
/// excitation/backend/config/material, so a checkpoint stamped with this
/// digest refuses to resume against a different grid (or the same grid in
/// a different order — index-based resume depends on order).
pub fn grid_digest(scenarios: &[Scenario]) -> u128 {
    content_hash(&JsonValue::Array(
        scenarios
            .iter()
            .map(|scenario| scenario.name.as_str().into())
            .collect(),
    ))
}

/// The checkpoint document a streaming batch flushes periodically so an
/// interrupted run can resume (`ja batch --resume <path>`) and still
/// produce output byte-identical to an uninterrupted run.
///
/// Everything resume needs is here: which grid the output belongs to
/// (`grid_digest`), how many records are durably in the output and how
/// many bytes they span (`entries`, `byte_offset` — the output is
/// truncated back to this offset, discarding any torn trailing record),
/// the running success/failure counts, and the suspended
/// [`StreamDigest`] state so the final manifest digest still covers every
/// record from entry 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamCheckpoint {
    /// [`grid_digest`] of the scenario list the output was produced from.
    pub grid_digest: u128,
    /// Number of complete record lines covered by this checkpoint.
    pub entries: usize,
    /// Output-file byte length covering exactly those records.
    pub byte_offset: u64,
    /// `status: "ok"` records so far.
    pub succeeded: usize,
    /// Error/cancelled records so far.
    pub failed: usize,
    /// Suspended record-digest state ([`StreamDigest::state`]).
    pub digest_state: u128,
}

impl StreamCheckpoint {
    /// Serialises the checkpoint as a `kind: "batch_checkpoint"` document
    /// (pretty form — checkpoints are single small files, not stream
    /// records).
    pub fn to_json(&self) -> JsonValue {
        report_envelope("batch_checkpoint")
            .with("grid_digest", format!("{:032x}", self.grid_digest))
            .with("entries", self.entries)
            .with(
                "byte_offset",
                i64::try_from(self.byte_offset).unwrap_or(i64::MAX),
            )
            .with("succeeded", self.succeeded)
            .with("failed", self.failed)
            .with("digest_state", format!("{:032x}", self.digest_state))
    }

    /// Parses a checkpoint document, strictly: unknown kinds, missing
    /// fields, malformed hex and negative counts are all errors (a
    /// corrupted checkpoint must fail loudly, not resume wrongly).
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first problem found.
    pub fn parse(text: &str) -> Result<Self, String> {
        let doc = JsonValue::parse(text).map_err(|err| format!("malformed checkpoint: {err}"))?;
        if doc.get(SCHEMA_VERSION_KEY).and_then(JsonValue::as_i64) != Some(SCHEMA_VERSION) {
            return Err(format!(
                "checkpoint {SCHEMA_VERSION_KEY} is not {SCHEMA_VERSION}"
            ));
        }
        if doc.get("kind").and_then(JsonValue::as_str) != Some("batch_checkpoint") {
            return Err("checkpoint kind is not \"batch_checkpoint\"".to_owned());
        }
        let hex = |key: &str| -> Result<u128, String> {
            let text = doc
                .get(key)
                .and_then(JsonValue::as_str)
                .ok_or_else(|| format!("checkpoint is missing `{key}`"))?;
            if text.len() != 32 {
                return Err(format!("checkpoint `{key}` is not 32 hex digits"));
            }
            u128::from_str_radix(text, 16)
                .map_err(|_| format!("checkpoint `{key}` is not 32 hex digits"))
        };
        let count = |key: &str| -> Result<usize, String> {
            let value = doc
                .get(key)
                .and_then(JsonValue::as_i64)
                .ok_or_else(|| format!("checkpoint is missing `{key}`"))?;
            usize::try_from(value).map_err(|_| format!("checkpoint `{key}` is negative"))
        };
        Ok(Self {
            grid_digest: hex("grid_digest")?,
            entries: count("entries")?,
            byte_offset: count("byte_offset")? as u64,
            succeeded: count("succeeded")?,
            failed: count("failed")?,
            digest_state: hex("digest_state")?,
        })
    }
}

/// Streams a scenario grid into `out` as chunked NDJSON: one
/// [`ndjson_record`] per entry in index order, emitted as workers finish,
/// sealed by the [`ndjson_manifest`] line.  This is THE streaming batch
/// writer — `ja batch --format ndjson` and the served streamed
/// `batch_request` both call it, which is what makes a served stream
/// byte-identical to the offline file.
///
/// `resume` continues an interrupted run: entries `0..resume.entries` are
/// skipped (the caller has already positioned `out` — for a file, truncated
/// to `resume.byte_offset` and seeked to its end) and the record digest
/// resumes from the suspended state, so the completed output is
/// byte-identical to an uninterrupted run.  A checkpoint stamped with a
/// different [`grid_digest`] is rejected.
///
/// `after_record` runs after each record has been written, with the
/// checkpoint state covering everything written so far and with `out` —
/// the CLI's checkpoint cadence flushes `out` and persists the state from
/// here.  The returned checkpoint is the final state (every entry
/// recorded); the manifest's bytes are not part of `byte_offset`.
///
/// # Errors
///
/// Propagates write failures, `after_record` failures, and (as
/// [`std::io::ErrorKind::InvalidData`]) a resume checkpoint that does not
/// belong to `scenarios`.
pub fn write_ndjson_batch<W>(
    runner: &BatchRunner,
    scenarios: &[Scenario],
    resume: Option<&StreamCheckpoint>,
    out: &mut W,
    mut after_record: impl FnMut(&StreamCheckpoint, &mut W) -> std::io::Result<()>,
) -> std::io::Result<StreamCheckpoint>
where
    W: std::io::Write + ?Sized,
{
    use std::io::{Error, ErrorKind};
    let grid = grid_digest(scenarios);
    let mut state = match resume {
        Some(checkpoint) => {
            if checkpoint.grid_digest != grid {
                return Err(Error::new(
                    ErrorKind::InvalidData,
                    "checkpoint does not belong to this grid (grid digest mismatch)",
                ));
            }
            if checkpoint.entries > scenarios.len() {
                return Err(Error::new(
                    ErrorKind::InvalidData,
                    "checkpoint records more entries than the grid holds",
                ));
            }
            *checkpoint
        }
        None => StreamCheckpoint {
            grid_digest: grid,
            entries: 0,
            byte_offset: 0,
            succeeded: 0,
            failed: 0,
            digest_state: StreamDigest::new().state(),
        },
    };
    let mut digest = StreamDigest::from_state(state.digest_state);
    runner.run_in_order(
        scenarios,
        state.entries,
        // Records render on the workers; only their bytes reach the writer.
        |index, outcome, _| {
            let record = ndjson_record(index, &scenarios[index].name, &outcome);
            (record, outcome.is_ok())
        },
        |index, (record, ok)| {
            digest.update(record.as_bytes());
            out.write_all(record.as_bytes())?;
            state.entries = index + 1;
            state.byte_offset += record.len() as u64;
            if ok {
                state.succeeded += 1;
            } else {
                state.failed += 1;
            }
            state.digest_state = digest.state();
            after_record(&state, out)
        },
    )?;
    let manifest = ndjson_manifest(scenarios.len(), state.succeeded, state.failed, &digest);
    out.write_all(manifest.as_bytes())?;
    out.flush()?;
    Ok(state)
}

/// Serialises a whole batch run as a `kind: "batch"` report.
///
/// Deterministic fields: `scenarios`, `succeeded`, `failed` and the
/// input-ordered `entries`.  With `timings`, a trailing `timing` object
/// adds `workers`, `elapsed_ns`, `serial_ns` and `speedup` (all of which
/// vary run to run, which is why they are opt-in).
pub fn batch_report_value(report: &BatchReport, timings: bool) -> JsonValue {
    JsonValue::build(|s| {
        describe_batch(
            s,
            report.entries.len(),
            report.successes().count(),
            |s| {
                for entry in &report.entries {
                    s.begin_object();
                    entry_fields(
                        s,
                        &entry.scenario.name,
                        &entry.outcome,
                        entry.wall_clock,
                        timings,
                    );
                    s.end_object();
                }
            },
            timings.then(|| (report.workers, report.elapsed, report.serial_runtime())),
        );
    })
}

/// Runs `scenarios` and renders the run as the same `kind: "batch"`
/// report text that [`batch_report_value`] builds from a [`BatchReport`]
/// (pretty form, trailing newline) — but each entry is rendered to text on
/// its worker by the reduce step of [`BatchRunner::run_in_order`], so only
/// rendered entries are buffered, and no lockstep lane builds a curve or
/// keeps a trajectory.  This is the stored-report path of `ja batch
/// --format json` and of served `batch_request`s.
///
/// Returns the report and the run's [`StreamSummary`] (for the failure
/// count that decides an exit status).
pub fn run_batch_report(
    runner: &BatchRunner,
    scenarios: &[Scenario],
    timings: bool,
) -> (String, StreamSummary) {
    let started = Instant::now();
    let (reduced, summary) = runner.run_reduced(scenarios, |index, outcome, wall_clock| {
        let entry = stored_entry(&scenarios[index].name, &outcome, wall_clock, timings);
        (entry, wall_clock)
    });
    let serial = reduced.iter().map(|(_, wall_clock)| *wall_clock).sum();
    let elapsed = started.elapsed();
    let entries: Vec<String> = reduced.into_iter().map(|(entry, _)| entry).collect();
    let report = batch_text(
        &entries,
        summary.succeeded,
        timings.then_some((summary.workers, elapsed, serial)),
    );
    (report, summary)
}

/// The `kind: "batch"` report text around `entries` rendered by
/// [`stored_entry`] (pretty form, trailing newline).
fn batch_text(
    entries: &[String],
    succeeded: usize,
    timing: Option<(usize, Duration, Duration)>,
) -> String {
    let mut report = String::with_capacity(entries.iter().map(String::len).sum());
    describe_batch(
        &mut JsonWriter::indented(&mut report, 0),
        entries.len(),
        succeeded,
        |s| {
            for entry in entries {
                s.raw(entry);
            }
        },
        timing,
    );
    report.push('\n');
    report
}

/// The one `kind: "batch"` document description: the envelope, the
/// counts, the `entries` that `entries` writes into the open array and —
/// given `(workers, elapsed, serial)` — the opt-in `timing` object.
fn describe_batch<S: JsonSink>(
    s: &mut S,
    scenarios: usize,
    succeeded: usize,
    entries: impl FnOnce(&mut S),
    timing: Option<(usize, Duration, Duration)>,
) {
    s.begin_object();
    envelope_fields(s, "batch");
    s.field("scenarios", scenarios);
    s.field("succeeded", succeeded);
    s.field("failed", scenarios - succeeded);
    s.key("entries");
    s.begin_array();
    entries(s);
    s.end_array();
    if let Some((workers, elapsed, serial)) = timing {
        s.key("timing");
        s.begin_object();
        s.field("workers", workers);
        s.field("elapsed_ns", nanos(elapsed));
        s.field("serial_ns", nanos(serial));
        s.field("speedup", speedup_estimate(serial, elapsed));
        s.end_object();
    }
    s.end_object();
}

/// Serialises a backend-agreement comparison as a `kind: "compare"` report:
/// worst pairwise |ΔB| (absolute and relative to peak |B|), the worst pair,
/// and one outcome entry per backend.
pub fn agreement_value(report: &AgreementReport, timings: bool) -> JsonValue {
    report_envelope("compare")
        .with("max_abs_diff_b_t", report.max_abs_diff_b)
        .with("relative_diff", report.relative_diff)
        .with(
            "worst_pair",
            report.worst_pair.map_or(JsonValue::Null, |(a, b)| {
                JsonValue::Array(vec![a.label().into(), b.label().into()])
            }),
        )
        .with(
            "outcomes",
            JsonValue::Array(
                report
                    .outcomes
                    .iter()
                    .map(|outcome| outcome_value(outcome, timings))
                    .collect(),
            ),
        )
}

/// Serialises a JA parameter set with the schema's unit-suffixed keys.
pub fn params_value(params: &JaParameters) -> JsonValue {
    JsonValue::object()
        .with("m_sat_a_per_m", params.m_sat.value())
        .with("a_a_per_m", params.a)
        .with("a2_a_per_m", params.a2)
        .with("k_a_per_m", params.k)
        .with("alpha", params.alpha)
        .with("c", params.c)
}

/// Serialises one starting point of a multi-start fit: the `start`
/// parameters, `status` (`ok` | `error`), the `evaluations` this start
/// consumed (counted for failed starts too — a failing evaluation still
/// simulates), and on success the per-start `cost` and fitted `params`.
/// With `timings`, adds `wall_clock_ns`.
pub fn start_fit_value(entry: &StartFit, timings: bool) -> JsonValue {
    let mut obj = JsonValue::object().with("start", params_value(&entry.start));
    match &entry.result {
        Ok(result) => {
            obj.push("status", "ok");
            obj.push("cost", result.cost);
            obj.push("evaluations", entry.evaluations);
            obj.push("params", params_value(&result.params));
        }
        Err(err) => {
            obj.push("status", "error");
            obj.push("error", err.to_string());
            obj.push("evaluations", entry.evaluations);
        }
    }
    if timings {
        obj.push("wall_clock_ns", nanos(entry.wall_clock));
    }
    obj
}

/// Serialises one fitted loop: `loop` name, `input_samples`,
/// `h_peak_a_per_m`, the `measured` metrics, the per-start `entries`,
/// `best_start` (index | null) and the best start's `params`/`cost`
/// (null when every start failed) plus the aggregate `evaluations`.
pub fn loop_fit_value(loop_fit: &LoopFit, timings: bool) -> JsonValue {
    let best = loop_fit.best_fit();
    JsonValue::object()
        .with("loop", loop_fit.name.as_str())
        .with("input_samples", loop_fit.input_samples)
        .with("h_peak_a_per_m", loop_fit.h_peak)
        .with("measured", metrics_value(&loop_fit.measured))
        .with(
            "entries",
            JsonValue::Array(
                loop_fit
                    .starts
                    .iter()
                    .map(|entry| start_fit_value(entry, timings))
                    .collect(),
            ),
        )
        .with(
            "best_start",
            loop_fit
                .best
                .map_or(JsonValue::Null, |i| JsonValue::Int(i as i64)),
        )
        .with(
            "params",
            best.map_or(JsonValue::Null, |r| params_value(&r.params)),
        )
        .with("cost", best.map_or(JsonValue::Null, |r| r.cost.into()))
        .with("evaluations", loop_fit.evaluations())
}

/// Serialises a multi-start fit batch as a `kind: "fit"` report.
///
/// The envelope carries `starts` and `seed`; a single-loop report inlines
/// that loop's fields flat (the shape `ja fit --input` has always emitted,
/// now with the per-start `entries` added), while a library fit nests one
/// object per loop under `loops`.  Timing fields are opt-in via `timings`,
/// so the default report is byte-identical for any worker count.
pub fn fit_report_value(report: &FitReport, timings: bool) -> JsonValue {
    // The lossless cast is guaranteed by `MultiStartOptions::validate`,
    // which rejects seeds beyond i64::MAX before a batch runs.
    let mut obj = report_envelope("fit")
        .with("starts", report.starts)
        .with("seed", i64::try_from(report.seed).unwrap_or(i64::MAX));
    if let [only] = report.loops.as_slice() {
        if let JsonValue::Object(fields) = loop_fit_value(only, timings) {
            for (key, value) in fields {
                obj.push(key, value);
            }
        }
    } else {
        obj.push(
            "loops",
            JsonValue::Array(
                report
                    .loops
                    .iter()
                    .map(|loop_fit| loop_fit_value(loop_fit, timings))
                    .collect(),
            ),
        );
    }
    if timings {
        let mut timing = JsonValue::object()
            .with("workers", report.workers)
            .with("elapsed_ns", nanos(report.elapsed))
            .with("serial_ns", nanos(report.serial_runtime()))
            .with("speedup", report.speedup());
        // Routing is run-dependent scheduling detail, not result content
        // (SoA f64 lanes are bit-identical to scalar evaluation), so it
        // rides with the opt-in timing fields.
        if let Some(lanes) = report.lockstep_lanes {
            timing.push("backend_routing", "soa");
            timing.push("lockstep_lanes", lanes);
        }
        obj.push("timing", timing);
    }
    obj
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::BatchRunner;
    use crate::scenario::{backend_agreement, BackendKind, Excitation, Scenario, ScenarioGrid};
    use ja_hysteresis::config::JaConfig;
    use magnetics::material::JaParameters;
    use proptest::collection;
    use proptest::prelude::*;

    fn grid() -> ScenarioGrid {
        ScenarioGrid::new()
            .backends(BackendKind::TIMELESS)
            .config("dh10", JaConfig::default())
            .excitation(
                "major",
                Excitation::major_loop(10_000.0, 250.0, 1).expect("excitation"),
            )
    }

    #[test]
    fn batch_report_is_byte_identical_across_worker_counts() {
        let scenarios = grid().scenarios().expect("grid");
        let serial = BatchRunner::new().workers(1).run(scenarios.clone());
        let parallel = BatchRunner::new().workers(4).run(scenarios);
        let a = batch_report_value(&serial, false).to_pretty_string();
        let b = batch_report_value(&parallel, false).to_pretty_string();
        assert_eq!(a, b);
        // The opt-in timing block is what breaks the identity.
        let timed = batch_report_value(&serial, true).to_pretty_string();
        assert!(timed.contains("\"timing\""));
        assert!(timed.contains("\"workers\": 1"));
        assert!(!a.contains("workers"));
        assert!(!a.contains("_ns"));
    }

    #[test]
    fn batch_report_has_envelope_and_entry_fields() {
        let report = BatchRunner::new()
            .workers(1)
            .run(grid().scenarios().unwrap());
        let value = batch_report_value(&report, false);
        assert_eq!(
            value.get(SCHEMA_VERSION_KEY).and_then(JsonValue::as_i64),
            Some(SCHEMA_VERSION)
        );
        assert_eq!(value.get("kind").and_then(JsonValue::as_str), Some("batch"));
        assert_eq!(value.get("scenarios").and_then(JsonValue::as_i64), Some(3));
        assert_eq!(value.get("succeeded").and_then(JsonValue::as_i64), Some(3));
        assert_eq!(value.get("failed").and_then(JsonValue::as_i64), Some(0));
        let entries = value.get("entries").unwrap().as_array().unwrap();
        assert_eq!(entries.len(), 3);
        for entry in entries {
            assert_eq!(entry.get("status").and_then(JsonValue::as_str), Some("ok"));
            assert!(entry.get("scenario").is_some());
            let metrics = entry.get("metrics").unwrap().as_object().unwrap();
            let expected: Vec<&str> = LoopMetrics::named_values(
                &magnetics::loop_analysis::loop_metrics(
                    &Scenario::fig1(BackendKind::DirectTimeless, 100.0)
                        .unwrap()
                        .run()
                        .unwrap()
                        .curve,
                )
                .unwrap(),
            )
            .iter()
            .map(|(k, _)| *k)
            .collect();
            let got: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(got, expected, "metric keys match LoopMetrics::named_values");
            let stats = entry.get("stats").unwrap().as_object().unwrap();
            assert_eq!(stats[0].0, "samples");
            assert_eq!(stats.len(), 5);
        }
        // The serialized document parses back.
        let text = value.to_pretty_string();
        assert_eq!(JsonValue::parse(&text).unwrap(), value);
    }

    #[test]
    fn failed_and_cancelled_entries_are_distinguished() {
        let bad = Scenario::new(
            "bad",
            JaParameters::date2006(),
            JaConfig::default().with_dh_max(-1.0),
            BackendKind::DirectTimeless,
            Excitation::major_loop(10_000.0, 250.0, 1).unwrap(),
        );
        let good = Scenario::fig1(BackendKind::DirectTimeless, 250.0).unwrap();
        let report = BatchRunner::new().workers(1).fail_fast().run([bad, good]);
        let value = batch_report_value(&report, false);
        let entries = value.get("entries").unwrap().as_array().unwrap();
        assert_eq!(
            entries[0].get("status").and_then(JsonValue::as_str),
            Some("error")
        );
        assert!(entries[0].get("error").is_some());
        assert!(entries[0].get("metrics").is_none());
        assert_eq!(
            entries[1].get("status").and_then(JsonValue::as_str),
            Some("cancelled")
        );
        assert_eq!(value.get("failed").and_then(JsonValue::as_i64), Some(2));
    }

    #[test]
    fn circuit_entries_carry_transient_stats_and_stay_deterministic() {
        use crate::scenario::{CircuitExcitation, StepControl};
        // A mixed grid: one field-driven and two circuit-driven scenarios
        // (fixed and adaptive control).  The report must be byte-identical
        // across worker counts — the transient counters are deterministic
        // step-control outcomes, not timings.
        let adaptive = CircuitExcitation::inrush()
            .with_step_control(StepControl::Adaptive(CircuitExcitation::adaptive_defaults()));
        let grid = ScenarioGrid::new()
            .backend(BackendKind::DirectTimeless)
            .excitation("major", Excitation::major_loop(10_000.0, 250.0, 1).unwrap())
            .excitation(
                "inrush-fixed",
                Excitation::Circuit(CircuitExcitation::inrush()),
            )
            .excitation("inrush-adaptive", Excitation::Circuit(adaptive));
        let scenarios = grid.scenarios().unwrap();
        let serial = BatchRunner::new().workers(1).run(scenarios.clone());
        let parallel = BatchRunner::new().workers(4).run(scenarios);
        let a = batch_report_value(&serial, false).to_pretty_string();
        let b = batch_report_value(&parallel, false).to_pretty_string();
        assert_eq!(a, b, "mixed batch reports must not depend on workers");

        let value = batch_report_value(&serial, false);
        let entries = value.get("entries").unwrap().as_array().unwrap();
        assert_eq!(entries.len(), 3);
        assert!(
            entries[0].get("transient").is_none(),
            "field-driven entries carry no transient object"
        );
        for entry in &entries[1..] {
            let transient = entry.get("transient").unwrap().as_object().unwrap();
            let keys: Vec<&str> = transient.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(
                keys,
                [
                    "accepted_steps",
                    "rejected_steps",
                    "newton_iterations",
                    "lu_solves",
                    "non_converged_steps"
                ]
            );
            assert!(
                transient[0].1.as_i64().unwrap() > 0,
                "accepted_steps present and positive"
            );
        }
        // The adaptive entry took fewer steps than the fixed one.
        let steps = |entry: &JsonValue| {
            entry
                .get("transient")
                .and_then(|t| t.get("accepted_steps"))
                .and_then(JsonValue::as_i64)
                .unwrap()
        };
        assert!(steps(&entries[2]) < steps(&entries[1]));
    }

    #[test]
    fn fit_report_inlines_single_loops_and_nests_libraries() {
        use crate::fit::{fit_batch, FitJob, MultiStartOptions};
        use ja_hysteresis::backend::HysteresisBackend;
        use ja_hysteresis::fitting::FitOptions;
        use ja_hysteresis::model::JilesAtherton;

        let measured = |params: JaParameters| {
            let mut model = JilesAtherton::new(params).unwrap();
            model
                .run_samples(
                    &waveform::schedule::FieldSchedule::major_loop(10_000.0, 250.0, 2)
                        .unwrap()
                        .to_samples(),
                )
                .unwrap()
        };
        let options = MultiStartOptions {
            starts: 3,
            workers: 2,
            fit: FitOptions {
                passes: 1,
                sweep_step: 500.0,
                ..FitOptions::default()
            },
            ..MultiStartOptions::default()
        };

        // Single loop: flat fields, ja-fit compatible.
        let single = fit_batch(
            vec![FitJob::with_auto_peak(
                "date2006",
                measured(JaParameters::date2006()),
            )],
            &options,
        )
        .unwrap();
        let value = fit_report_value(&single, false);
        assert_eq!(value.get("kind").and_then(JsonValue::as_str), Some("fit"));
        assert_eq!(value.get("starts").and_then(JsonValue::as_i64), Some(3));
        assert_eq!(value.get("seed").and_then(JsonValue::as_i64), Some(42));
        assert_eq!(
            value.get("loop").and_then(JsonValue::as_str),
            Some("date2006")
        );
        assert!(value.get("loops").is_none(), "single loop inlines flat");
        assert!(value.get("h_peak_a_per_m").is_some());
        assert!(value.get("measured").is_some());
        let entries = value.get("entries").unwrap().as_array().unwrap();
        assert_eq!(entries.len(), 3);
        for entry in entries {
            assert_eq!(entry.get("status").and_then(JsonValue::as_str), Some("ok"));
            assert!(entry.get("start").is_some());
            assert!(entry.get("cost").and_then(JsonValue::as_f64).is_some());
            let params = entry.get("params").unwrap().as_object().unwrap();
            assert_eq!(params[0].0, "m_sat_a_per_m");
            assert_eq!(params.len(), 6);
            assert!(entry.get("wall_clock_ns").is_none(), "timings are opt-in");
        }
        let best = value.get("best_start").and_then(JsonValue::as_i64).unwrap();
        let best_cost = entries[best as usize]
            .get("cost")
            .and_then(JsonValue::as_f64)
            .unwrap();
        assert_eq!(
            value.get("cost").and_then(JsonValue::as_f64),
            Some(best_cost)
        );
        assert!(value.get("timing").is_none());
        // The document parses back.
        let text = value.to_pretty_string();
        assert_eq!(JsonValue::parse(&text).unwrap(), value);

        // A library fit nests per-loop objects.
        let library = fit_batch(
            vec![
                FitJob::with_auto_peak("date2006", measured(JaParameters::date2006())),
                FitJob::with_auto_peak("hard-steel", measured(JaParameters::hard_steel())),
            ],
            &options,
        )
        .unwrap();
        let value = fit_report_value(&library, true);
        let loops = value.get("loops").unwrap().as_array().unwrap();
        assert_eq!(loops.len(), 2);
        assert_eq!(
            loops[1].get("loop").and_then(JsonValue::as_str),
            Some("hard-steel")
        );
        assert!(
            value.get("measured").is_none(),
            "library form has no flat loop"
        );
        assert!(value.get("timing").is_some(), "--timings adds the block");
        let entry = &loops[0].get("entries").unwrap().as_array().unwrap()[0];
        assert!(entry.get("wall_clock_ns").is_some());
    }

    #[test]
    fn operating_point_entries_carry_loss_and_stay_deterministic() {
        use crate::scenario::OperatingPoint;
        use magnetics::geometry::CoreGeometry;
        use magnetics::losses::LaminationSpec;
        let op = OperatingPoint::at_temperature(85.0)
            .with_frequency(50.0)
            .with_geometry(CoreGeometry::demo())
            .with_lamination(LaminationSpec::silicon_steel_0p35mm());
        let op_grid = grid()
            .material("date2006", JaParameters::date2006())
            .material("hard-steel", JaParameters::hard_steel())
            .operating_point("t85", op);
        let scenarios = op_grid.scenarios().expect("grid");
        let serial = BatchRunner::new().workers(1).run(scenarios.clone());
        let parallel = BatchRunner::new().workers(4).run(scenarios);
        let a = batch_report_value(&serial, false).to_pretty_string();
        let b = batch_report_value(&parallel, false).to_pretty_string();
        assert_eq!(a, b, "loss reports must not depend on workers");

        let value = batch_report_value(&serial, false);
        let entries = value.get("entries").unwrap().as_array().unwrap();
        for entry in entries {
            assert_eq!(
                entry.get("temperature_c").and_then(JsonValue::as_f64),
                Some(85.0)
            );
            assert_eq!(
                entry.get("frequency_hz").and_then(JsonValue::as_f64),
                Some(50.0)
            );
            let loss = entry.get("loss").unwrap().as_object().unwrap();
            let keys: Vec<&str> = loss.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(
                keys,
                ["hysteresis_w", "eddy_w", "total_w", "energy_per_cycle_j"]
            );
            for (key, value) in loss {
                assert!(value.as_f64().unwrap() > 0.0, "{key}");
            }
            assert_eq!(
                entry
                    .get("scenario")
                    .and_then(JsonValue::as_str)
                    .unwrap()
                    .split('/')
                    .count(),
                5,
                "operating-point entries carry the fifth name segment"
            );
        }
        // Entries without an operating point stay byte-identical to the
        // historical shape: no loss, no temperature, no frequency keys.
        let plain = BatchRunner::new()
            .workers(1)
            .run(grid().scenarios().unwrap());
        let plain = batch_report_value(&plain, false).to_pretty_string();
        assert!(!plain.contains("\"loss\""));
        assert!(!plain.contains("temperature_c"));
        assert!(!plain.contains("frequency_hz"));
    }

    #[test]
    fn non_loop_metrics_serialise_as_null() {
        // A biased minor loop never crosses B = 0 -> metrics are None.
        let scenario = Scenario::new(
            "biased",
            JaParameters::date2006(),
            JaConfig::default(),
            BackendKind::DirectTimeless,
            Excitation::biased_minor_loop(9_000.0, 500.0, 1, 50.0).unwrap(),
        );
        let outcome = scenario.run().unwrap();
        assert!(outcome.metrics.is_none());
        let value = outcome_value(&outcome, false);
        assert_eq!(value.get("metrics"), Some(&JsonValue::Null));
    }

    #[test]
    fn agreement_report_serialises_with_envelope() {
        let report = backend_agreement(
            JaParameters::date2006(),
            JaConfig::default(),
            &Excitation::major_loop(10_000.0, 250.0, 1).unwrap(),
            &BackendKind::TIMELESS,
        )
        .unwrap();
        let value = agreement_value(&report, false);
        assert_eq!(
            value.get("kind").and_then(JsonValue::as_str),
            Some("compare")
        );
        assert!(value
            .get("max_abs_diff_b_t")
            .and_then(JsonValue::as_f64)
            .is_some());
        let pair = value.get("worst_pair").unwrap().as_array().unwrap();
        assert_eq!(pair.len(), 2);
        assert_eq!(value.get("outcomes").unwrap().as_array().unwrap().len(), 3);
    }

    #[test]
    fn nanos_saturate() {
        assert_eq!(nanos(Duration::from_nanos(1500)), 1500);
        assert_eq!(nanos(Duration::MAX), i64::MAX);
    }

    /// Streams `scenarios` to a buffer with `workers`, no resume.
    fn stream_to_bytes(scenarios: &[Scenario], workers: usize) -> (Vec<u8>, StreamCheckpoint) {
        let mut out = Vec::new();
        let state = write_ndjson_batch(
            &BatchRunner::new().workers(workers),
            scenarios,
            None,
            &mut out,
            |_, _| Ok(()),
        )
        .expect("in-memory stream");
        (out, state)
    }

    #[test]
    fn ndjson_records_mirror_the_stored_entries() {
        let scenarios = grid().scenarios().expect("grid");
        let (bytes, state) = stream_to_bytes(&scenarios, 1);
        let text = String::from_utf8(bytes).expect("utf8");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), scenarios.len() + 1, "records + manifest");

        let stored = BatchRunner::new().workers(1).run(scenarios.clone());
        let stored_entries = batch_report_value(&stored, false);
        let stored_entries = stored_entries.get("entries").unwrap().as_array().unwrap();
        for (index, line) in lines[..scenarios.len()].iter().enumerate() {
            let record = JsonValue::parse(line).expect("record parses");
            assert_eq!(
                record.get("index").and_then(JsonValue::as_i64),
                Some(index as i64)
            );
            // Index aside, the record is exactly the stored entry object.
            let mut expected = JsonValue::object().with("index", index);
            if let JsonValue::Object(fields) = stored_entries[index].clone() {
                for (key, value) in fields {
                    expected.push(key, value);
                }
            }
            assert_eq!(record, expected);
        }

        // The manifest seals counts and the running record digest.
        let manifest = JsonValue::parse(lines[scenarios.len()]).expect("manifest parses");
        assert_eq!(
            manifest.get("kind").and_then(JsonValue::as_str),
            Some("batch_manifest")
        );
        assert_eq!(
            manifest.get("scenarios").and_then(JsonValue::as_i64),
            Some(scenarios.len() as i64)
        );
        let mut digest = StreamDigest::new();
        digest.update(&text.as_bytes()[..state.byte_offset as usize]);
        assert_eq!(
            manifest.get("entries_digest").and_then(JsonValue::as_str),
            Some(format!("{:032x}", digest.value()).as_str())
        );
    }

    #[test]
    fn ndjson_stream_is_byte_identical_across_worker_counts() {
        let scenarios = grid().scenarios().expect("grid");
        let (reference, _) = stream_to_bytes(&scenarios, 1);
        for workers in [2, 8] {
            let (bytes, _) = stream_to_bytes(&scenarios, workers);
            assert_eq!(
                bytes, reference,
                "{workers}-worker NDJSON diverged from single-worker"
            );
        }
    }

    #[test]
    fn ndjson_resume_is_byte_identical_to_uninterrupted() {
        let scenarios = grid().scenarios().expect("grid");
        let (reference, _) = stream_to_bytes(&scenarios, 2);

        // Interrupt after two records: capture the checkpoint state, keep
        // the bytes written so far plus a torn half-record the truncation
        // step must discard.
        let mut out = Vec::new();
        let mut checkpoint = None;
        let interrupted = write_ndjson_batch(
            &BatchRunner::new().workers(2),
            &scenarios,
            None,
            &mut out,
            |state, _| {
                if state.entries == 2 {
                    checkpoint = Some(*state);
                    return Err(std::io::Error::other("interrupted"));
                }
                Ok(())
            },
        );
        assert!(interrupted.is_err());
        let checkpoint = checkpoint.expect("checkpointed before the interrupt");
        out.truncate(checkpoint.byte_offset as usize);
        out.extend_from_slice(b"{\"index\":2,\"scen"); // torn tail

        // Resume: truncate to the checkpoint offset, continue.
        out.truncate(checkpoint.byte_offset as usize);
        let final_state = write_ndjson_batch(
            &BatchRunner::new().workers(8),
            &scenarios,
            Some(&checkpoint),
            &mut out,
            |_, _| Ok(()),
        )
        .expect("resumed stream");
        assert_eq!(out, reference);
        assert_eq!(final_state.entries, scenarios.len());
        assert_eq!(final_state.succeeded + final_state.failed, scenarios.len());
    }

    #[test]
    fn ndjson_resume_rejects_a_foreign_grid() {
        let scenarios = grid().scenarios().expect("grid");
        let mut foreign = StreamCheckpoint {
            grid_digest: 1,
            entries: 0,
            byte_offset: 0,
            succeeded: 0,
            failed: 0,
            digest_state: StreamDigest::new().state(),
        };
        let mut out = Vec::new();
        let err = write_ndjson_batch(
            &BatchRunner::new(),
            &scenarios,
            Some(&foreign),
            &mut out,
            |_, _| Ok(()),
        )
        .unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        // Matching digest but impossible entry count is rejected too.
        foreign.grid_digest = grid_digest(&scenarios);
        foreign.entries = scenarios.len() + 1;
        let err = write_ndjson_batch(
            &BatchRunner::new(),
            &scenarios,
            Some(&foreign),
            &mut out,
            |_, _| Ok(()),
        )
        .unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn checkpoint_document_round_trips_strictly() {
        let checkpoint = StreamCheckpoint {
            grid_digest: 0xfeed_beef_0123,
            entries: 7,
            byte_offset: 1234,
            succeeded: 6,
            failed: 1,
            digest_state: u128::MAX,
        };
        let text = checkpoint.to_json().to_pretty_string();
        assert_eq!(StreamCheckpoint::parse(&text), Ok(checkpoint));
        // Corruptions fail loudly.
        for (broken, what) in [
            (text.replace("batch_checkpoint", "batch"), "kind"),
            (
                text.replace("\"entries\": 7", "\"entries\": -7"),
                "negative",
            ),
            (
                text.replace("\"schema_version\": 1", "\"schema_version\": 2"),
                "version",
            ),
            (text.replace("ffffffff", "zzzzzzzz"), "hex"),
            (text[..text.len() / 2].to_owned(), "truncated"),
        ] {
            assert!(StreamCheckpoint::parse(&broken).is_err(), "{what}");
        }
    }

    /// A checkpoint's keys and the valid value of each.
    const CHECKPOINT_FIELDS: [(&str, &str); 8] = [
        ("schema_version", "1"),
        ("kind", "\"batch_checkpoint\""),
        ("grid_digest", "\"0123456789abcdef0123456789abcdef\""),
        ("entries", "7"),
        ("byte_offset", "1234"),
        ("succeeded", "6"),
        ("failed", "1"),
        ("digest_state", "\"ffffffffffffffffffffffffffffffff\""),
    ];

    /// Values a corrupted checkpoint field may hold: negative, fractional,
    /// out-of-range and mistyped counts, and malformed hex.
    const CHECKPOINT_VALUES: [&str; 22] = [
        "0",
        "2",
        "-1",
        "-0",
        "1.5",
        "1e999",
        "9223372036854775807",
        "-9223372036854775808",
        "18446744073709551616",
        "null",
        "true",
        "[]",
        "{}",
        "\"7\"",
        "\"batch\"",
        "\"\"",
        "\"0123456789abcdef0123456789abcde\"",
        "\"0123456789abcdef0123456789abcdef0\"",
        "\"zzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzz\"",
        "\"+123456789abcdef0123456789abcdef\"",
        "\"-123456789abcdef0123456789abcdef\"",
        "\"\u{e9}\u{e9}\u{e9}\u{e9}\u{e9}\u{e9}\u{e9}\u{e9}\u{e9}\u{e9}\u{e9}\u{e9}\u{e9}\u{e9}\u{e9}\u{e9}\"",
    ];

    /// A checkpoint document with every key, up to three of them replaced
    /// by a corrupt value or dropped (`(field, CHECKPOINT_VALUES.len())`),
    /// then kept whole, truncated at `cut`, or followed by a stray byte.
    fn checkpoint_text() -> impl Strategy<Value = String> {
        (
            collection::vec(
                (
                    0usize..CHECKPOINT_FIELDS.len(),
                    0usize..CHECKPOINT_VALUES.len() + 1,
                ),
                0..4,
            ),
            0usize..3,
            0usize..400,
        )
            .prop_map(|(corruptions, tail, cut)| {
                let mut values: Vec<Option<&str>> =
                    CHECKPOINT_FIELDS.iter().map(|&(_, v)| Some(v)).collect();
                for (field, value) in corruptions {
                    values[field] = CHECKPOINT_VALUES.get(value).copied();
                }
                let fields: Vec<String> = CHECKPOINT_FIELDS
                    .iter()
                    .zip(values)
                    .filter_map(|(&(key, _), value)| Some(format!("\"{key}\": {}", value?)))
                    .collect();
                let mut text = format!("{{{}}}", fields.join(", "));
                match tail {
                    1 => {
                        let mut cut = cut.min(text.len());
                        while !text.is_char_boundary(cut) {
                            cut -= 1;
                        }
                        text.truncate(cut);
                    }
                    2 => text.push('}'),
                    _ => {}
                }
                text
            })
    }

    /// Parses `text` without panicking; a checkpoint it accepts
    /// round-trips through its own document.
    fn assert_checkpoint_parse_is_total(text: &str) {
        match StreamCheckpoint::parse(text) {
            Ok(checkpoint) => {
                let rendered = checkpoint.to_json().to_pretty_string();
                assert_eq!(StreamCheckpoint::parse(&rendered), Ok(checkpoint));
            }
            Err(message) => assert!(!message.is_empty(), "{text:?}"),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        #[test]
        fn checkpoint_parse_never_panics_on_arbitrary_bytes(
            bytes in collection::vec(0usize..256, 0..96),
        ) {
            let bytes: Vec<u8> = bytes.into_iter().map(|b| b as u8).collect();
            assert_checkpoint_parse_is_total(&String::from_utf8_lossy(&bytes));
        }

        #[test]
        fn checkpoint_parse_never_panics_on_corrupted_documents(text in checkpoint_text()) {
            assert_checkpoint_parse_is_total(&text);
        }
    }

    /// Floats a report can meet beside arbitrary bit patterns: signed
    /// zeros, non-finite values, subnormals and an integral value.
    const FLOATS: [f64; 8] = [
        0.0,
        -0.0,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        5e-324,
        -1.5e-310,
        1e21,
    ];

    /// Names and messages that need escaping or pass through as UTF-8.
    const TEXTS: [&str; 6] = [
        "quote\"",
        "back\\slash",
        "ctl\u{1}\u{1f}\u{7f}",
        "nl\n\ttab\r",
        "é ü µ 😀",
        "\u{2028}major/t25",
    ];

    /// A stream of choices; once exhausted it yields zeros.
    struct Choices(std::vec::IntoIter<usize>);

    impl Choices {
        fn next(&mut self) -> usize {
            self.0.next().unwrap_or(0)
        }

        fn flag(&mut self) -> bool {
            self.next() % 2 == 1
        }

        fn float(&mut self) -> f64 {
            match self.next() {
                c if c % 3 == 0 => FLOATS[c / 3 % FLOATS.len()],
                c => f64::from_bits(c as u64),
            }
        }

        /// A counter: small, just below `u64::MAX` (above `i64::MAX`), or
        /// any value.
        fn counter(&mut self) -> u64 {
            match self.next() {
                c if c % 3 == 0 => (c % 1000) as u64,
                c if c % 3 == 1 => u64::MAX - (c % 1000) as u64,
                c => c as u64,
            }
        }

        fn text(&mut self) -> String {
            let parts = 1 + self.next() % 3;
            (0..parts)
                .map(|_| TEXTS[self.next() % TEXTS.len()])
                .collect()
        }
    }

    /// An `ok`, `error` or `cancelled` entry's outcome, an `ok` one with or
    /// without each optional part.
    fn outcome(c: &mut Choices) -> Result<ScenarioOutcome, JaError> {
        use magnetics::units::{FieldStrength, FluxDensity};
        match c.next() % 4 {
            0 => return Err(JaError::Cancelled),
            1 => {
                return Err(JaError::Backend {
                    backend: "systemc-event-kernel",
                    reason: c.text(),
                })
            }
            _ => {}
        }
        let metrics = c.flag().then(|| LoopMetrics {
            b_max: FluxDensity::new(c.float()),
            h_max: FieldStrength::new(c.float()),
            coercivity: FieldStrength::new(c.float()),
            remanence: FluxDensity::new(c.float()),
            loop_area: c.float(),
            negative_slope_samples: c.counter() as usize,
        });
        let transient = c.flag().then(|| TransientStats {
            newton_iterations: c.counter() as usize,
            lu_solves: c.counter() as usize,
            settled_iterations: c.counter() as usize,
            non_converged_steps: c.counter() as usize,
            accepted_steps: c.counter() as usize,
            rejected_steps: c.counter() as usize,
        });
        let operating_point = c.flag().then(|| crate::scenario::OperatingPoint {
            temperature_c: c.flag().then(|| c.float()),
            frequency_hz: c.flag().then(|| c.float()),
            ..Default::default()
        });
        let loss = c.flag().then(|| CoreLoss {
            hysteresis_w: c.float(),
            eddy_w: c.float(),
            total_w: c.float(),
            energy_per_cycle_j: c.float(),
        });
        let kernel = c.flag().then(|| KernelStatistics {
            delta_cycles: c.counter(),
            events_scheduled: c.counter(),
            process_activations: c.counter(),
        });
        Ok(ScenarioOutcome {
            name: c.text(),
            backend: BackendKind::ALL[c.next() % BackendKind::ALL.len()],
            curve: magnetics::bh::BhCurve::new(),
            metrics,
            loss,
            operating_point,
            stats: JaStatistics {
                samples: c.counter(),
                updates: c.counter(),
                slope_evaluations: c.counter(),
                negative_slope_events: c.counter(),
                rejected_updates: c.counter(),
            },
            kernel,
            transient,
            runtime: Duration::from_nanos(c.counter()),
            lockstep_lanes: c.flag().then(|| c.counter() as usize),
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// One description feeds both sinks: the text writer's compact
        /// records and indented stored report equal the compact and pretty
        /// text of the tree the builder assembles from the same
        /// description.
        #[test]
        fn text_and_tree_sinks_render_the_same_bytes(
            choices in collection::vec(0usize..usize::MAX, 0..160),
        ) {
            let mut c = Choices(choices.into_iter());
            let timings = c.flag();
            let entries: Vec<_> = (0..c.next() % 4)
                .map(|_| (c.text(), outcome(&mut c), Duration::from_nanos(c.counter())))
                .collect();
            for (index, (name, outcome, _)) in entries.iter().enumerate() {
                let tree = JsonValue::build(|s| {
                    s.begin_object();
                    s.field("index", index);
                    entry_fields(s, name, outcome, Duration::ZERO, false);
                    s.end_object();
                });
                prop_assert_eq!(
                    ndjson_record(index, name, outcome),
                    format!("{}\n", tree.to_compact_string())
                );
            }

            let succeeded = entries.iter().filter(|(_, outcome, _)| outcome.is_ok()).count();
            let timing = timings.then(|| {
                let (elapsed, serial) = (c.counter(), c.counter());
                (c.next(), Duration::from_nanos(elapsed), Duration::from_nanos(serial))
            });
            let stored: Vec<String> = entries
                .iter()
                .map(|(name, outcome, wall_clock)| stored_entry(name, outcome, *wall_clock, timings))
                .collect();
            let tree = JsonValue::build(|s| {
                describe_batch(s, entries.len(), succeeded, |s| {
                    for (name, outcome, wall_clock) in &entries {
                        s.begin_object();
                        entry_fields(s, name, outcome, *wall_clock, timings);
                        s.end_object();
                    }
                }, timing);
            });
            prop_assert_eq!(batch_text(&stored, succeeded, timing), tree.to_pretty_string());
        }
    }

    #[test]
    fn grid_digest_tracks_grid_identity_and_order() {
        let scenarios = grid().scenarios().expect("grid");
        let mut reordered = scenarios.clone();
        reordered.swap(0, 1);
        assert_eq!(grid_digest(&scenarios), grid_digest(&scenarios));
        assert_ne!(grid_digest(&scenarios), grid_digest(&reordered));
        assert_ne!(grid_digest(&scenarios), grid_digest(&scenarios[1..]));
    }
}
