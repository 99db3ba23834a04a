//! The `ja serve` request layer: strict parsing of versioned request
//! documents, content-addressed cache keys, and dispatch onto the same
//! engines the offline subcommands use.
//!
//! The wire contract is specified in `docs/PROTOCOL.md`; the short
//! version: `POST /v1/eval` takes a `schema_version: 1` request document
//! (`batch_request` | `fit_request` | `sweep_request` |
//! `transient_request`), and the response body is **byte-identical** to
//! what the corresponding offline subcommand (`ja batch`, `ja fit`,
//! `ja sweep --format json`, `ja transient --format json`) would write
//! for the same inputs. A `batch_request` with `options.stream` instead
//! answers with an `application/x-ndjson` stream whose bytes equal the
//! `ja batch --format ndjson` file — same writer, no cache (see
//! [`batch_stream_response`]). That identity is load-bearing: it is what makes
//! the [`ResultCache`] correct (a cached body *is* the answer) and it is
//! asserted by CI's cli-smoke job with `cmp`.
//!
//! To guarantee it, requests reuse the offline code paths rather than
//! reimplementing them: this layer checks only the JSON shape of a
//! request, then fills the same [`GridSpec`] the offline front ends fill
//! (a `batch_request` grid axis by axis, a single-scenario request as a
//! one-cell spec), so lookups, validation, defaults and scenario keys are
//! shared by construction; routing goes through [`crate::common`]'s
//! lookup table, and reports are built by [`hdl_models::report`] with
//! timings off (the serve layer never emits run-dependent fields).

use std::sync::atomic::{AtomicBool, Ordering};

use hdl_models::exec::BatchRunner;
use hdl_models::fit::{fit_batch, MultiStartOptions};
use hdl_models::report::{fit_report_value, report_envelope, run_batch_report, write_ndjson_batch};
use hdl_models::scenario::{Excitation, Scenario};
use hdl_models::serve::{error_response, HttpRequest, HttpResponse, ResultCache};
use ja_hysteresis::json::{content_hash, JsonValue, SCHEMA_VERSION, SCHEMA_VERSION_KEY};

use crate::commands::fit::{default_options, measured_job};
use crate::common::{enveloped_outcome, routing_by_name};
use crate::grid_config::GridSpec;
use crate::CliError;

/// Everything the request handler needs across requests.
pub struct ServeState<'a> {
    /// The drain flag shared with the accept loop; `POST /v1/shutdown`
    /// sets it.
    pub shutdown: &'a AtomicBool,
    /// The content-addressed response cache.
    pub cache: ResultCache,
    /// Worker threads used to *evaluate* one request (the batch/fit
    /// pools), as opposed to the server's request workers. `0` = one per
    /// core. A server policy, deliberately not part of the request
    /// schema: reports are byte-identical for any value.
    pub eval_workers: usize,
}

/// A request failure: the HTTP status it maps to and the message for the
/// `kind:"error"` document.
struct ApiError {
    status: u16,
    message: String,
}

impl ApiError {
    /// `400` — the request document itself is wrong.
    fn bad(message: impl Into<String>) -> Self {
        Self {
            status: 400,
            message: message.into(),
        }
    }

    /// `422` — the request was well-formed but the evaluation failed.
    fn unprocessable(message: impl Into<String>) -> Self {
        Self {
            status: 422,
            message: message.into(),
        }
    }
}

/// A value the shared front-end code rejects is a bad request.
impl From<CliError> for ApiError {
    fn from(err: CliError) -> Self {
        Self::bad(err.message)
    }
}

/// Routes one parsed HTTP request. This is the handler closure `ja
/// serve` injects into [`hdl_models::serve::serve`].
pub fn handle_request(state: &ServeState<'_>, request: &HttpRequest) -> HttpResponse {
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/v1/health") => health_response(state),
        ("POST", "/v1/eval") => match eval(state, &request.body) {
            Ok(response) => response,
            Err(err) => error_response(err.status, &err.message),
        },
        ("POST", "/v1/shutdown") => {
            state.shutdown.store(true, Ordering::Release);
            let doc = report_envelope("shutdown").with("draining", true);
            HttpResponse::json(200, doc.to_pretty_string())
        }
        (_, "/v1/health" | "/v1/eval" | "/v1/shutdown") => error_response(
            405,
            &format!(
                "method {} is not allowed on {} (GET /v1/health, POST /v1/eval, POST /v1/shutdown)",
                request.method, request.path
            ),
        ),
        (_, path) => error_response(
            404,
            &format!("unknown path `{path}` (GET /v1/health, POST /v1/eval, POST /v1/shutdown)"),
        ),
    }
}

fn health_response(state: &ServeState<'_>) -> HttpResponse {
    let stats = state.cache.stats();
    let doc = report_envelope("health")
        .with("status", "ok")
        .with("eval_workers", state.eval_workers)
        .with(
            "cache",
            JsonValue::object()
                .with("entries", stats.entries)
                .with("bytes", stats.bytes)
                .with("budget_bytes", stats.budget_bytes)
                .with("hits", stats.hits)
                .with("misses", stats.misses)
                .with("evictions", stats.evictions),
        );
    HttpResponse::json(200, doc.to_pretty_string())
}

/// Per-request options shared by every request kind (each kind allows a
/// subset — see [`eval`]). Defaults are the offline CLI's, so an empty
/// `options` object evaluates exactly like the bare subcommand.
struct RequestOptions {
    cache_info: bool,
    stream: bool,
    /// `ja fit`'s options; its `routing` also routes batches.
    run: MultiStartOptions,
}

impl Default for RequestOptions {
    fn default() -> Self {
        Self {
            cache_info: false,
            stream: false,
            run: default_options(),
        }
    }
}

fn eval(state: &ServeState<'_>, body: &[u8]) -> Result<HttpResponse, ApiError> {
    let text =
        std::str::from_utf8(body).map_err(|_| ApiError::bad("request body is not UTF-8 text"))?;
    let doc =
        JsonValue::parse(text).map_err(|err| ApiError::bad(format!("invalid JSON: {err}")))?;
    if doc.as_object().is_none() {
        return Err(ApiError::bad("request document must be a JSON object"));
    }
    match doc.get(SCHEMA_VERSION_KEY).and_then(JsonValue::as_i64) {
        Some(SCHEMA_VERSION) => {}
        Some(other) => {
            return Err(ApiError::bad(format!(
                "unsupported schema_version {other} (this server speaks {SCHEMA_VERSION})"
            )))
        }
        None => {
            return Err(ApiError::bad(format!(
                "request must carry `{SCHEMA_VERSION_KEY}: {SCHEMA_VERSION}`"
            )))
        }
    }
    let kind = doc
        .get("kind")
        .and_then(JsonValue::as_str)
        .ok_or_else(|| ApiError::bad("request must carry a string `kind`"))?
        // Borrow-free copy: `doc` is consumed by the handlers below.
        .to_owned();

    // Envelope and options are validated *before* the cache lookup, so a
    // malformed request is rejected identically whether or not an entry
    // for its well-formed twin exists.
    let (envelope_keys, option_keys): (&[&str], &[&str]) = match kind.as_str() {
        "batch_request" => (
            &[SCHEMA_VERSION_KEY, "kind", "grid", "options"],
            &["routing", "cache_info", "stream"],
        ),
        "fit_request" => (
            &[SCHEMA_VERSION_KEY, "kind", "loops", "options"],
            &[
                "routing",
                "cache_info",
                "starts",
                "seed",
                "passes",
                "initial_step",
                "sweep_step",
            ],
        ),
        "sweep_request" | "transient_request" => (
            &[
                SCHEMA_VERSION_KEY,
                "kind",
                "material",
                "backend",
                "dh_max",
                "excitation",
                "options",
            ],
            &["cache_info"],
        ),
        other => {
            return Err(ApiError::bad(format!(
                "unknown request kind `{other}` (expected batch_request | fit_request | \
                 sweep_request | transient_request)"
            )))
        }
    };
    check_keys(&doc, envelope_keys, &kind)?;
    let options = parse_options(&doc, option_keys, &kind)?;

    // A streamed response has no complete body to cache (and its bytes
    // are NDJSON, not the pretty report), so `options.stream` bypasses
    // the result cache entirely — no lookup, no insert.
    if options.stream {
        debug_assert_eq!(kind, "batch_request", "only batch_request allows `stream`");
        return batch_stream_response(state, &doc, &options);
    }

    let key = cache_key(&doc);
    if let Some(cached) = state.cache.get(key) {
        return Ok(with_cache_marker(
            HttpResponse::json_shared(200, cached),
            options.cache_info,
            key,
            true,
        ));
    }

    let report = match kind.as_str() {
        "batch_request" => batch_eval(state, &doc, &options)?,
        "fit_request" => fit_eval(state, &doc, &options)?,
        "sweep_request" => single_eval(&doc, "sweep")?,
        "transient_request" => single_eval(&doc, "transient")?,
        _ => unreachable!("kind was validated above"),
    };
    let body = state.cache.insert(key, report);
    Ok(with_cache_marker(
        HttpResponse::json_shared(200, body),
        options.cache_info,
        key,
        false,
    ))
}

/// Appends the opt-in cache marker headers. They ride as headers, not
/// body fields, precisely so the body stays byte-identical to the
/// offline report whether the answer was evaluated or recalled.
fn with_cache_marker(
    response: HttpResponse,
    cache_info: bool,
    key: u128,
    hit: bool,
) -> HttpResponse {
    if !cache_info {
        return response;
    }
    response
        .with_header("X-Ja-Cache", if hit { "hit" } else { "miss" })
        .with_header("X-Ja-Cache-Key", format!("{key:032x}"))
}

/// The content address of a request: [`content_hash`] of the document
/// with the fields that cannot affect the response bytes removed.
///
/// `options.routing` is dropped because routing is a scheduling decision
/// (SoA f64 lanes are bit-identical to scalar runs) and `options.cache_info`
/// because it only toggles response *headers* — both are documented as
/// cache-neutral in `docs/PROTOCOL.md`. Everything else, including
/// `schema_version` and `kind`, participates in the key. The hash is
/// computed over the canonical JSON form, so clients may order fields
/// freely and still share a cache entry.
pub fn cache_key(doc: &JsonValue) -> u128 {
    content_hash(&normalized_request(doc))
}

fn normalized_request(doc: &JsonValue) -> JsonValue {
    let JsonValue::Object(fields) = doc else {
        return doc.clone();
    };
    let mut kept = Vec::with_capacity(fields.len());
    for (key, value) in fields {
        if key == "options" {
            if let JsonValue::Object(options) = value {
                let neutral = |name: &str| name == "routing" || name == "cache_info";
                let remaining: Vec<(String, JsonValue)> = options
                    .iter()
                    .filter(|(name, _)| !neutral(name))
                    .cloned()
                    .collect();
                // An `options` object left empty hashes like no options
                // at all: both evaluate to the same bytes.
                if !remaining.is_empty() {
                    kept.push((key.clone(), JsonValue::Object(remaining)));
                }
                continue;
            }
        }
        kept.push((key.clone(), value.clone()));
    }
    JsonValue::Object(kept)
}

/// Rejects fields outside `allowed` — the serve schema is as strict as
/// `core::json`'s parser: a typo must not silently change an experiment.
fn check_keys(value: &JsonValue, allowed: &[&str], what: &str) -> Result<(), ApiError> {
    let fields = value
        .as_object()
        .ok_or_else(|| ApiError::bad(format!("`{what}` must be a JSON object")))?;
    for (key, _) in fields {
        if !allowed.contains(&key.as_str()) {
            return Err(ApiError::bad(format!(
                "`{what}` does not take field `{key}` (expected: {})",
                allowed.join(", ")
            )));
        }
    }
    Ok(())
}

fn parse_options(
    doc: &JsonValue,
    allowed: &[&str],
    kind: &str,
) -> Result<RequestOptions, ApiError> {
    let mut options = RequestOptions::default();
    let Some(value) = doc.get("options") else {
        return Ok(options);
    };
    let fields = value
        .as_object()
        .ok_or_else(|| ApiError::bad("`options` must be a JSON object"))?;
    for (key, value) in fields {
        if !allowed.contains(&key.as_str()) {
            return Err(ApiError::bad(format!(
                "`{kind}` does not take option `{key}` (expected: {})",
                allowed.join(", ")
            )));
        }
        match key.as_str() {
            "routing" => {
                let name = value
                    .as_str()
                    .ok_or_else(|| ApiError::bad("`options.routing` must be a string"))?;
                options.run.routing = routing_by_name(name)?;
            }
            "cache_info" => {
                options.cache_info = match value {
                    JsonValue::Bool(flag) => *flag,
                    _ => return Err(ApiError::bad("`options.cache_info` must be a boolean")),
                };
            }
            "stream" => {
                options.stream = match value {
                    JsonValue::Bool(flag) => *flag,
                    _ => return Err(ApiError::bad("`options.stream` must be a boolean")),
                };
            }
            "starts" => options.run.starts = usize_field(value, "options.starts")?,
            "seed" => options.run.seed = u64_field(value, "options.seed")?,
            "passes" => options.run.fit.passes = usize_field(value, "options.passes")?,
            "initial_step" => {
                options.run.fit.initial_step = f64_field(value, "options.initial_step")?;
            }
            "sweep_step" => options.run.fit.sweep_step = f64_field(value, "options.sweep_step")?,
            _ => unreachable!("allowed keys are the match arms"),
        }
    }
    Ok(options)
}

fn f64_field(value: &JsonValue, what: &str) -> Result<f64, ApiError> {
    match value.as_f64() {
        Some(v) if v.is_finite() => Ok(v),
        _ => Err(ApiError::bad(format!("`{what}` must be a finite number"))),
    }
}

fn usize_field(value: &JsonValue, what: &str) -> Result<usize, ApiError> {
    match value.as_i64() {
        Some(v) if v >= 0 => Ok(v as usize),
        _ => Err(ApiError::bad(format!(
            "`{what}` must be a non-negative integer"
        ))),
    }
}

fn u64_field(value: &JsonValue, what: &str) -> Result<u64, ApiError> {
    match value.as_i64() {
        Some(v) if v >= 0 => Ok(v as u64),
        _ => Err(ApiError::bad(format!(
            "`{what}` must be a non-negative integer"
        ))),
    }
}

/// The `(key, token)` text pairs of a spec object's fields, for the grid
/// parser. A finite number becomes its `Display` text (which parses back
/// onto the same `f64`, so scenario keys — and report bytes — match the
/// config-file form); a string is taken as is, but must have no whitespace
/// and no `=`, like a config-line token.
fn scalar_tokens<'doc>(
    fields: impl Iterator<Item = &'doc (String, JsonValue)>,
    what: &str,
) -> Result<Vec<(&'doc str, String)>, ApiError> {
    fields
        .map(|(key, value)| {
            let text = match value {
                JsonValue::Int(v) => v.to_string(),
                JsonValue::Number(v) if v.is_finite() => format!("{v}"),
                JsonValue::String(s) => s.clone(),
                _ => {
                    return Err(ApiError::bad(format!(
                        "{what} parameter `{key}` must be a finite number or a string"
                    )))
                }
            };
            if text.is_empty() || text.contains(char::is_whitespace) || text.contains('=') {
                return Err(ApiError::bad(format!(
                    "{what} parameter `{key}` has an unusable value `{text}`"
                )));
            }
            Ok((key.as_str(), text))
        })
        .collect()
}

/// Adds one excitation object — `kind` plus parameter fields, e.g.
/// `{"kind": "major", "peak": 10000, "step": 100}` — to `spec`.
fn with_excitation(spec: GridSpec, value: &JsonValue) -> Result<GridSpec, ApiError> {
    let fields = value
        .as_object()
        .ok_or_else(|| ApiError::bad("`excitation` must be a JSON object"))?;
    let kind = value
        .get("kind")
        .and_then(JsonValue::as_str)
        .ok_or_else(|| ApiError::bad("`excitation` must carry a string `kind`"))?;
    let tokens = scalar_tokens(fields.iter().filter(|(key, _)| key != "kind"), "excitation")?;
    Ok(spec.excitation(kind, tokens.iter().map(|(key, text)| (*key, text.as_str())))?)
}

fn str_axis<'doc>(grid: &'doc JsonValue, key: &str) -> Result<Vec<&'doc str>, ApiError> {
    let Some(value) = grid.get(key) else {
        return Ok(Vec::new());
    };
    let items = value
        .as_array()
        .ok_or_else(|| ApiError::bad(format!("`grid.{key}` must be an array")))?;
    items
        .iter()
        .map(|item| {
            item.as_str()
                .ok_or_else(|| ApiError::bad(format!("`grid.{key}` entries must be strings")))
        })
        .collect()
}

fn f64_axis(grid: &JsonValue, key: &str) -> Result<Vec<f64>, ApiError> {
    let Some(value) = grid.get(key) else {
        return Ok(Vec::new());
    };
    let items = value
        .as_array()
        .ok_or_else(|| ApiError::bad(format!("`grid.{key}` must be an array")))?;
    items
        .iter()
        .map(|item| f64_field(item, &format!("grid.{key}")))
        .collect()
}

/// Builds the scenario list of a `batch_request`'s `grid` object. Axis
/// arrays accumulate in order like repeated config lines into the same
/// [`GridSpec`] `ja batch --config` fills; omitted axes keep its
/// defaults.
fn batch_scenarios(doc: &JsonValue) -> Result<Vec<Scenario>, ApiError> {
    let grid_doc = doc
        .get("grid")
        .ok_or_else(|| ApiError::bad("`batch_request` requires a `grid` object"))?;
    check_keys(
        grid_doc,
        &[
            "material",
            "backend",
            "dh_max",
            "excitation",
            "temperature",
            "geometry",
        ],
        "grid",
    )?;
    let mut spec = GridSpec::default();
    for name in str_axis(grid_doc, "material")? {
        spec = spec.material(name)?;
    }
    for name in str_axis(grid_doc, "backend")? {
        spec = spec.backends(name)?;
    }
    for dh_max in f64_axis(grid_doc, "dh_max")? {
        spec = spec.dh_max(dh_max)?;
    }
    let excitations = grid_doc
        .get("excitation")
        .and_then(JsonValue::as_array)
        .ok_or_else(|| ApiError::bad("`grid.excitation` must be an array of excitation objects"))?;
    for value in excitations {
        spec = with_excitation(spec, value)?;
    }
    for t_c in f64_axis(grid_doc, "temperature")? {
        spec = spec.temperature(t_c);
    }
    if let Some(value) = grid_doc.get("geometry") {
        let fields = value
            .as_object()
            .ok_or_else(|| ApiError::bad("`grid.geometry` must be a JSON object"))?;
        let tokens = scalar_tokens(fields.iter(), "geometry")?;
        spec = spec.geometry(tokens.iter().map(|(key, text)| (*key, text.as_str())))?;
    }
    spec.finish()?
        .scenarios()
        .map_err(|err| ApiError::bad(err.to_string()))
}

/// `kind:"batch_request"` → the exact bytes of `ja batch --config` on an
/// equivalent grid config.
fn batch_eval(
    state: &ServeState<'_>,
    doc: &JsonValue,
    options: &RequestOptions,
) -> Result<String, ApiError> {
    let scenarios = batch_scenarios(doc)?;
    let runner = BatchRunner::new()
        .workers(state.eval_workers)
        .soa_routing(options.run.routing);
    // Per-scenario failures are data, not a request failure: the report
    // carries their status — exactly like the offline exit-1-after-write.
    Ok(run_batch_report(&runner, &scenarios, false).0)
}

/// `kind:"batch_request"` with `options.stream` → the exact bytes of
/// `ja batch --format ndjson` on an equivalent grid config, produced one
/// record at a time onto the connection.
///
/// Grid validation still happens up front, so a malformed request is a
/// regular `400` document; once the `200` headers are out, per-scenario
/// failures ride inside the stream as `status:"error"` records (they are
/// data, exactly like the buffered report) and only an I/O failure can
/// truncate the stream — detectable by the missing final manifest line.
fn batch_stream_response(
    state: &ServeState<'_>,
    doc: &JsonValue,
    options: &RequestOptions,
) -> Result<HttpResponse, ApiError> {
    let scenarios = batch_scenarios(doc)?;
    let runner = BatchRunner::new()
        .workers(state.eval_workers)
        .soa_routing(options.run.routing);
    Ok(HttpResponse::ndjson_stream(move |out| {
        write_ndjson_batch(&runner, &scenarios, None, out, |_, _| Ok(())).map(|_| ())
    }))
}

/// `kind:"fit_request"` → the exact bytes of `ja fit` on equivalent
/// loops (measured samples inline instead of CSV files).
fn fit_eval(
    state: &ServeState<'_>,
    doc: &JsonValue,
    options: &RequestOptions,
) -> Result<String, ApiError> {
    let loops = doc
        .get("loops")
        .and_then(JsonValue::as_array)
        .ok_or_else(|| ApiError::bad("`fit_request` requires a `loops` array"))?;
    if loops.is_empty() {
        return Err(ApiError::bad("`loops` must contain at least one loop"));
    }
    let mut jobs = Vec::with_capacity(loops.len());
    for (index, loop_doc) in loops.iter().enumerate() {
        let what = format!("loops[{index}]");
        check_keys(loop_doc, &["name", "h", "b", "h_peak"], &what)?;
        let name = loop_doc
            .get("name")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| ApiError::bad(format!("`{what}` requires a string `name`")))?;
        let h = sample_array(loop_doc, "h", &what)?;
        let b = sample_array(loop_doc, "b", &what)?;
        if h.len() != b.len() {
            return Err(ApiError::bad(format!(
                "`{what}`: `h` has {} samples but `b` has {}",
                h.len(),
                b.len()
            )));
        }
        let h_peak = match loop_doc.get("h_peak") {
            None => None,
            Some(value) => Some(f64_field(value, &format!("{what}.h_peak"))?),
        };
        jobs.push(measured_job(name, &h, &b, h_peak));
    }
    let multi_start = MultiStartOptions {
        workers: state.eval_workers,
        ..options.run
    };
    multi_start
        .validate()
        .map_err(|err| ApiError::bad(err.to_string()))?;
    let report = fit_batch(jobs, &multi_start).map_err(|err| {
        ApiError::unprocessable(format!(
            "fit failed: {err} (is every input a closed BH loop?)"
        ))
    })?;
    Ok(fit_report_value(&report, false).to_pretty_string())
}

fn sample_array(loop_doc: &JsonValue, key: &str, what: &str) -> Result<Vec<f64>, ApiError> {
    let items = loop_doc
        .get(key)
        .and_then(JsonValue::as_array)
        .ok_or_else(|| ApiError::bad(format!("`{what}` requires a `{key}` array of numbers")))?;
    items
        .iter()
        .map(|item| f64_field(item, &format!("{what}.{key}")))
        .collect()
}

fn optional_str<'doc>(doc: &'doc JsonValue, key: &str) -> Result<Option<&'doc str>, ApiError> {
    doc.get(key)
        .map(|value| {
            value
                .as_str()
                .ok_or_else(|| ApiError::bad(format!("`{key}` must be a string")))
        })
        .transpose()
}

/// The one scenario of a `kind:"sweep_request"` / `kind:"transient_request"`:
/// the one-cell [`GridSpec`] `ja sweep` / `ja transient` build from their
/// flags.
fn single_scenario(doc: &JsonValue, report_kind: &str) -> Result<Scenario, ApiError> {
    let spec = GridSpec::cell(
        optional_str(doc, "material")?,
        optional_str(doc, "backend")?,
        doc.get("dh_max")
            .map(|value| f64_field(value, "dh_max"))
            .transpose()?,
    )?;
    let excitation = doc.get("excitation").ok_or_else(|| {
        ApiError::bad(format!(
            "`{report_kind}_request` requires an `excitation` object"
        ))
    })?;
    let scenario = with_excitation(spec, excitation)?.single()?;
    let is_circuit = matches!(scenario.excitation, Excitation::Circuit(_));
    if report_kind == "transient" && !is_circuit {
        return Err(ApiError::bad(
            "`transient_request` requires a `circuit` excitation (use `sweep_request` for \
             field-driven stimuli)",
        ));
    }
    if report_kind == "sweep" && is_circuit {
        return Err(ApiError::bad(
            "`sweep_request` takes field-driven stimuli (use `transient_request` for `circuit`)",
        ));
    }
    Ok(scenario)
}

/// `kind:"sweep_request"` / `kind:"transient_request"` → the exact bytes
/// of `ja sweep --format json` / `ja transient --format json`: one
/// scenario, one enveloped outcome.
fn single_eval(doc: &JsonValue, report_kind: &str) -> Result<String, ApiError> {
    let outcome = single_scenario(doc, report_kind)?
        .run()
        .map_err(|err| ApiError::unprocessable(err.to_string()))?;
    Ok(enveloped_outcome(report_kind, &outcome, false).to_pretty_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid_config;
    use crate::grid_config::tests::{assert_bounded, grid_lines, line, Entry, Lines};
    use hdl_models::report::batch_report_value;
    use proptest::prelude::*;

    fn parse(text: &str) -> JsonValue {
        JsonValue::parse(text).expect("test document parses")
    }

    fn state(cache_bytes: usize) -> (&'static AtomicBool, ServeState<'static>) {
        // Tests leak one flag each — fine for a handful of unit tests,
        // and it keeps `ServeState` free of test-only generics.
        let shutdown: &'static AtomicBool = Box::leak(Box::new(AtomicBool::new(false)));
        (
            shutdown,
            ServeState {
                shutdown,
                cache: ResultCache::new(cache_bytes),
                eval_workers: 1,
            },
        )
    }

    fn post_eval(state: &ServeState<'_>, body: &str) -> HttpResponse {
        handle_request(
            state,
            &HttpRequest {
                method: "POST".into(),
                path: "/v1/eval".into(),
                headers: Vec::new(),
                body: body.as_bytes().to_vec(),
            },
        )
    }

    const BATCH_REQUEST: &str = r#"{
        "schema_version": 1,
        "kind": "batch_request",
        "grid": {
            "material": ["date2006"],
            "backend": ["direct"],
            "dh_max": [10],
            "excitation": [{"kind": "fig1", "step": 500}]
        },
        "options": {"routing": "auto", "cache_info": true}
    }"#;

    #[test]
    fn cache_key_ignores_key_order_and_cache_neutral_options() {
        let base = parse(BATCH_REQUEST);
        let reordered = parse(
            r#"{
                "kind": "batch_request",
                "options": {"cache_info": true, "routing": "auto"},
                "grid": {
                    "excitation": [{"step": 500, "kind": "fig1"}],
                    "dh_max": [10],
                    "backend": ["direct"],
                    "material": ["date2006"]
                },
                "schema_version": 1
            }"#,
        );
        assert_eq!(cache_key(&base), cache_key(&reordered));

        // routing / cache_info never change response bytes, so they must
        // not split the cache; dropping `options` entirely is the same
        // request again.
        for options in [
            r#""options": {"routing": "scalar", "cache_info": false}"#,
            r#""options": {"routing": "soa"}"#,
            r#""options": {}"#,
        ] {
            let variant = parse(&BATCH_REQUEST.replace(
                r#""options": {"routing": "auto", "cache_info": true}"#,
                options,
            ));
            assert_eq!(cache_key(&base), cache_key(&variant), "{options}");
        }
        let no_options = parse(
            &BATCH_REQUEST
                .replace(r#","options": {"routing": "auto", "cache_info": true}"#, "")
                .replace(
                    r#"},
        "options": {"routing": "auto", "cache_info": true}"#,
                    "}",
                ),
        );
        assert_eq!(cache_key(&base), cache_key(&no_options));
    }

    #[test]
    fn cache_key_changes_with_every_request_axis() {
        let base = cache_key(&parse(BATCH_REQUEST));
        for (from, to) in [
            (r#""schema_version": 1"#, r#""schema_version": 2"#),
            (r#""kind": "batch_request""#, r#""kind": "fit_request""#),
            (r#""material": ["date2006"]"#, r#""material": ["ja1984"]"#),
            (r#""backend": ["direct"]"#, r#""backend": ["ams"]"#),
            (r#""dh_max": [10]"#, r#""dh_max": [25]"#),
            (r#""step": 500"#, r#""step": 250"#),
            (r#""kind": "fig1""#, r#""kind": "major""#),
        ] {
            let mutated = cache_key(&parse(&BATCH_REQUEST.replace(from, to)));
            assert_ne!(base, mutated, "{from} -> {to} must change the key");
        }
    }

    #[test]
    fn batch_request_evaluates_then_hits_the_cache_with_identical_bytes() {
        let (_, state) = state(1 << 20);
        let first = post_eval(&state, BATCH_REQUEST);
        assert_eq!(first.status(), 200, "{}", first.body());
        assert!(first.body().contains("\"kind\": \"batch\""));
        assert!(first
            .body()
            .contains("fig1(step=500)/direct-timeless/dh10/date2006"));
        let marker = |response: &HttpResponse| {
            let raw = {
                let mut out = Vec::new();
                response.write_to(&mut out).unwrap();
                String::from_utf8(out).unwrap()
            };
            raw.lines()
                .find_map(|line| line.strip_prefix("X-Ja-Cache: ").map(str::to_owned))
        };
        assert_eq!(marker(&first).as_deref(), Some("miss"));

        let second = post_eval(&state, BATCH_REQUEST);
        assert_eq!(second.status(), 200);
        assert_eq!(marker(&second).as_deref(), Some("hit"));
        assert_eq!(
            first.body(),
            second.body(),
            "hit must return identical bytes"
        );
        assert_eq!(state.cache.stats().hits, 1);

        // Reordered fields and a different routing land on the same entry.
        let routed = post_eval(
            &state,
            &BATCH_REQUEST.replace(r#""routing": "auto""#, r#""routing": "scalar""#),
        );
        assert_eq!(marker(&routed).as_deref(), Some("hit"));
        assert_eq!(routed.body(), first.body());

        // Without cache_info the marker disappears but the bytes do not.
        let silent = post_eval(
            &state,
            &BATCH_REQUEST.replace(r#""cache_info": true"#, r#""cache_info": false"#),
        );
        assert_eq!(marker(&silent), None);
        assert_eq!(silent.body(), first.body());
    }

    #[test]
    fn stream_option_streams_ndjson_and_bypasses_the_cache() {
        let (_, state) = state(1 << 20);
        let request = BATCH_REQUEST.replace(
            r#""options": {"routing": "auto", "cache_info": true}"#,
            r#""options": {"stream": true}"#,
        );
        let response = post_eval(&state, &request);
        assert_eq!(response.status(), 200);
        assert!(response.is_streamed());
        let mut raw = Vec::new();
        response.write_to(&mut raw).unwrap();
        let raw = String::from_utf8(raw).unwrap();
        let (head, body) = raw.split_once("\r\n\r\n").unwrap();
        assert!(head.contains("Content-Type: application/x-ndjson"));
        assert!(!head.contains("Content-Length"), "{head}");

        // The streamed bytes are exactly what `ja batch --format ndjson`
        // writes offline for the equivalent grid: both call
        // `report::write_ndjson_batch`.
        let scenarios = batch_scenarios(&parse(&request))
            .unwrap_or_else(|err| panic!("grid builds: {}", err.message));
        let runner = BatchRunner::new().workers(1);
        let mut reference = Vec::new();
        write_ndjson_batch(&runner, &scenarios, None, &mut reference, |_, _| Ok(())).unwrap();
        assert_eq!(body, String::from_utf8(reference).unwrap());
        assert!(body
            .lines()
            .last()
            .expect("stream has lines")
            .contains("\"kind\":\"batch_manifest\""));

        // Streaming never touches the result cache.
        let stats = state.cache.stats();
        assert_eq!(stats.entries, 0);
        assert_eq!(stats.hits + stats.misses, 0);
    }

    /// A writer that takes its first write whole and fails every later
    /// one, like a socket whose client hung up after the head arrived.
    struct HungUp {
        calls: usize,
    }

    impl std::io::Write for HungUp {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.calls += 1;
            match self.calls {
                1 => Ok(buf.len()),
                _ => Err(std::io::ErrorKind::BrokenPipe.into()),
            }
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_stream_whose_client_hung_up_stops_at_the_first_failed_flush() {
        // 40 entries, a stream of several 8 KiB buffers.
        let dh_max: Vec<String> = (0..40).map(|i| format!("{}", 10 + i)).collect();
        let request = BATCH_REQUEST
            .replace(
                r#""dh_max": [10]"#,
                &format!(r#""dh_max": [{}]"#, dh_max.join(", ")),
            )
            .replace(
                r#""options": {"routing": "auto", "cache_info": true}"#,
                r#""options": {"stream": true}"#,
            );
        let response = post_eval(&state(0).1, &request);
        assert!(response.is_streamed());
        let mut whole = Vec::new();
        response
            .write_to(&mut whole)
            .expect("a vector takes every write");
        assert!(whole.len() > 2 * 8 * 1024, "{} bytes", whole.len());
        let mut out = HungUp { calls: 0 };
        let err = response
            .write_to(&mut out)
            .expect_err("writes fail after the head");
        assert_eq!(err.kind(), std::io::ErrorKind::BrokenPipe);
        // The head, the flush that failed, and the retry of the dropped
        // buffer: the producer stopped at the error instead of rendering
        // the rest of the grid into further failing flushes.
        assert_eq!(out.calls, 3);
    }

    #[test]
    fn malformed_eval_requests_are_400s() {
        let (_, state) = state(0);
        for (body, fragment) in [
            ("not json", "invalid JSON"),
            ("[1, 2]", "must be a JSON object"),
            (r#"{"kind": "batch_request"}"#, "schema_version"),
            (
                r#"{"schema_version": 9, "kind": "batch_request"}"#,
                "unsupported schema_version 9",
            ),
            (r#"{"schema_version": 1}"#, "string `kind`"),
            (
                r#"{"schema_version": 1, "kind": "guess"}"#,
                "unknown request kind",
            ),
            (
                r#"{"schema_version": 1, "kind": "batch_request", "grids": {}}"#,
                "does not take field `grids`",
            ),
            (
                r#"{"schema_version": 1, "kind": "batch_request", "options": {"workers": 4}}"#,
                "does not take option `workers`",
            ),
            (
                r#"{"schema_version": 1, "kind": "fit_request", "options": {"stream": true}}"#,
                "does not take option `stream`",
            ),
            (
                r#"{"schema_version": 1, "kind": "batch_request", "options": {"stream": 1}}"#,
                "`options.stream` must be a boolean",
            ),
            (
                r#"{"schema_version": 1, "kind": "batch_request"}"#,
                "requires a `grid` object",
            ),
            (
                r#"{"schema_version": 1, "kind": "batch_request",
                   "grid": {"excitation": [{"kind": "sawtooth"}]}}"#,
                "unknown excitation kind",
            ),
            (
                r#"{"schema_version": 1, "kind": "batch_request",
                   "grid": {"material": ["mu-metal"], "excitation": [{"kind": "fig1"}]}}"#,
                "unknown material",
            ),
            (
                r#"{"schema_version": 1, "kind": "fit_request", "loops": []}"#,
                "at least one loop",
            ),
            (
                r#"{"schema_version": 1, "kind": "fit_request",
                   "loops": [{"name": "l", "h": [1, 2], "b": [1]}]}"#,
                "`h` has 2 samples but `b` has 1",
            ),
            (
                r#"{"schema_version": 1, "kind": "transient_request",
                   "excitation": {"kind": "fig1", "step": 500}}"#,
                "requires a `circuit` excitation",
            ),
            (
                r#"{"schema_version": 1, "kind": "sweep_request",
                   "excitation": {"kind": "circuit"}}"#,
                "field-driven stimuli",
            ),
        ] {
            let response = post_eval(&state, body);
            assert_eq!(response.status(), 400, "{body} -> {}", response.body());
            assert!(
                response.body().contains(fragment),
                "{body}: response {} should mention {fragment:?}",
                response.body()
            );
        }
    }

    #[test]
    fn batch_request_operating_points_match_the_offline_grid_config() {
        let (_, state) = state(0);
        let response = post_eval(
            &state,
            r#"{"schema_version": 1, "kind": "batch_request",
               "grid": {
                   "excitation": [{"kind": "fig1", "step": 500}],
                   "temperature": [-40, 125],
                   "geometry": {"area": 1e-4, "path": 0.1, "frequency": 50}
               }}"#,
        );
        assert_eq!(response.status(), 200, "{}", response.body());
        assert!(response
            .body()
            .contains("fig1(step=500)/direct-timeless/default/date2006/t-40"));
        assert!(response
            .body()
            .contains("fig1(step=500)/direct-timeless/default/date2006/t125"));
        assert!(response.body().contains("\"temperature_c\": -40"));
        assert!(response.body().contains("\"loss\""));

        // The response bytes equal the offline report for the equivalent
        // grid config — same grid builder, same report writer.
        let grid = grid_config::parse_grid(
            "excitation = fig1 step=500\n\
             temperature = -40:125\n\
             geometry = area=0.0001 path=0.1 frequency=50\n",
        )
        .unwrap();
        let report = BatchRunner::new().workers(1).run(grid.scenarios().unwrap());
        assert_eq!(
            response.body(),
            batch_report_value(&report, false).to_pretty_string()
        );
    }

    #[test]
    fn malformed_operating_point_requests_are_400s() {
        let (_, state) = state(0);
        for (body, fragment) in [
            (
                r#"{"schema_version": 1, "kind": "batch_request",
                   "grid": {"excitation": [{"kind": "fig1"}], "temperature": ["hot"]}}"#,
                "`grid.temperature` must be a finite number",
            ),
            (
                r#"{"schema_version": 1, "kind": "batch_request",
                   "grid": {"excitation": [{"kind": "fig1"}], "geometry": {"area": 1e-4}}}"#,
                "needs `path=`",
            ),
            (
                r#"{"schema_version": 1, "kind": "batch_request",
                   "grid": {"excitation": [{"kind": "fig1"}],
                            "geometry": {"area": 1e-4, "path": 0.1, "lamination": "mu"}}}"#,
                "unknown lamination",
            ),
        ] {
            let response = post_eval(&state, body);
            assert_eq!(response.status(), 400, "{body} -> {}", response.body());
            assert!(
                response.body().contains(fragment),
                "{body}: response {} should mention {fragment:?}",
                response.body()
            );
        }
    }

    #[test]
    fn sweep_request_matches_the_offline_sweep_report() {
        let (_, state) = state(0);
        let response = post_eval(
            &state,
            r#"{"schema_version": 1, "kind": "sweep_request",
               "excitation": {"kind": "major", "peak": 5000, "step": 250, "cycles": 1}}"#,
        );
        assert_eq!(response.status(), 200, "{}", response.body());
        assert!(response.body().contains("\"kind\": \"sweep\""));
        assert!(response
            .body()
            .contains("major(peak=5000,step=250,cycles=1)/direct-timeless/dh10/date2006"));
    }

    /// A vocabulary token as JSON: a finite number as itself, anything
    /// else as a string.
    fn json_token(token: &str) -> String {
        match token.parse::<f64>() {
            Ok(v) if v.is_finite() => token.to_owned(),
            _ => format!("\"{token}\""),
        }
    }

    /// Generated lines as `(key, [JSON value])` per grid key, in order of
    /// first appearance; a token with no `=` becomes a `null` field.
    fn json_axes(lines: &Lines) -> Vec<(&'static str, Vec<String>)> {
        let mut axes: Vec<(&'static str, Vec<String>)> = Vec::new();
        for generated in lines {
            let (axis, entry) = line(generated);
            let values = match entry {
                Entry::Token(token) => vec![json_token(token)],
                Entry::Tokens(tokens) => tokens.into_iter().map(json_token).collect(),
                Entry::Params(kind, params) => {
                    let fields: Vec<String> = kind
                        .map(|kind| format!("\"kind\": \"{kind}\""))
                        .into_iter()
                        .chain(params.iter().map(|(name, token)| match name {
                            Some(name) => format!("\"{name}\": {}", json_token(token)),
                            None => format!("\"{token}\": null"),
                        }))
                        .collect();
                    vec![format!("{{{}}}", fields.join(", "))]
                }
            };
            match axes.iter_mut().find(|(key, _)| *key == axis) {
                Some((_, existing)) => existing.extend(values),
                None => axes.push((axis, values)),
            }
        }
        axes
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn batch_requests_yield_bounded_scenarios_or_400s(lines in grid_lines()) {
            let grid: Vec<String> = json_axes(&lines)
                .into_iter()
                .map(|(axis, values)| match axis {
                    "geometry" => format!("\"geometry\": {}", values[0]),
                    _ => format!("\"{axis}\": [{}]", values.join(", ")),
                })
                .collect();
            let body = format!(
                "{{\"schema_version\": 1, \"kind\": \"batch_request\", \"grid\": {{{}}}}}",
                grid.join(", ")
            );
            match batch_scenarios(&parse(&body)) {
                Ok(scenarios) => assert_bounded(&scenarios, &body),
                Err(err) => prop_assert_eq!(err.status, 400, "{}: {}", body, err.message),
            }
        }

        #[test]
        fn sweep_requests_yield_a_bounded_scenario_or_a_400(lines in grid_lines()) {
            let fields: Vec<String> = json_axes(&lines)
                .into_iter()
                .filter(|(axis, _)| ["material", "backend", "dh_max", "excitation"].contains(axis))
                .map(|(axis, values)| format!(", \"{axis}\": {}", values[0]))
                .collect();
            let body = format!(
                "{{\"schema_version\": 1, \"kind\": \"sweep_request\"{}}}",
                fields.concat()
            );
            match single_scenario(&parse(&body), "sweep") {
                Ok(scenario) => assert_bounded(&[scenario], &body),
                Err(err) => prop_assert_eq!(err.status, 400, "{}: {}", body, err.message),
            }
        }
    }

    #[test]
    fn health_and_shutdown_routes_work() {
        let (flag, state) = state(0);
        let get = |method: &str, path: &str| {
            handle_request(
                &state,
                &HttpRequest {
                    method: method.into(),
                    path: path.into(),
                    headers: Vec::new(),
                    body: Vec::new(),
                },
            )
        };
        let health = get("GET", "/v1/health");
        assert_eq!(health.status(), 200);
        assert!(health.body().contains("\"kind\": \"health\""));
        assert!(health.body().contains("\"budget_bytes\": 0"));

        assert_eq!(get("POST", "/v1/health").status(), 405);
        assert_eq!(get("GET", "/v1/nope").status(), 404);

        assert!(!flag.load(Ordering::Acquire));
        let shutdown = get("POST", "/v1/shutdown");
        assert_eq!(shutdown.status(), 200);
        assert!(shutdown.body().contains("\"draining\": true"));
        assert!(
            flag.load(Ordering::Acquire),
            "shutdown must set the drain flag"
        );
    }
}
