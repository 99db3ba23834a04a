//! Traced replay of one benchmark workload.
//!
//! ```text
//! perfbench-trace SPEC.json SIDECAR.json
//! ```
//!
//! `SPEC.json` (written by `perfbench/run.py`) holds the workload's
//! generated inputs: scenario grids, measured-loop CSVs or a serve request
//! schedule.  The replay runs them on one thread through the public
//! functions of each library layer, with a span around every call, and
//! writes a `kind:"trace"` sidecar: per span the count, total and self
//! nanoseconds, allocations and peak heap rise; the deterministic work
//! counters; the untraced engine times (`BatchRunner::run` / `fit_batch`
//! at 1 and N workers) that give `coverage`; and the traced-vs-untraced
//! replay times that give `overhead_frac`.  Each replayed report is
//! compared byte for byte with the one the `ja` binary produced for the
//! same inputs, so a replay that drifts from the program's routing or
//! naming is counted in `mismatches`.

mod fit;
mod grid;
mod recorder;
mod serve;
mod spec;

use std::path::Path;
use std::time::{Duration, Instant};

use hdl_models::exec::{BatchRunner, SoaRouting};
use hdl_models::fit::{fit_batch, MultiStartOptions};
use hdl_models::scenario::Scenario;
use ja_hysteresis::fitting::FitOptions;
use ja_hysteresis::json::JsonValue;

use recorder::{CountingAlloc, Recorder};
use spec::{field, num, text};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Spans whose sum stands for the engine's own work (`coverage`).
const ENGINE_SPANS: [&str; 11] = [
    "scenario.resolved_params",
    "scenario.to_samples",
    "scenario.backend_build",
    "soa.step",
    "scalar.step",
    "event.step",
    "mna.simulate",
    "metrics.loop_metrics",
    "losses.core_loss",
    "fit.starting_points",
    "fit.descent",
];

/// Engine runs and replays per trace: the spans report the mean of these.
const REPEATS: usize = 5;

fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let started = Instant::now();
    let value = f();
    (value, started.elapsed())
}

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|err| panic!("cannot read `{path}`: {err}"))
}

/// Compares a replayed body with the program's, when the spec names one.
fn check(expected: Option<&JsonValue>, actual: &str, label: &str, mismatches: &mut Vec<String>) {
    if let Some(path) = expected.and_then(JsonValue::as_str) {
        if read(path) != actual {
            mismatches.push(format!("{label}: replay differs from `{path}`"));
        }
    }
}

/// Single-worker engine time and untraced and traced replay time, summed
/// over repeats that interleave the three, so slow drifts of a shared
/// machine fall on all of them alike.
#[derive(Default)]
struct Sums {
    engine_1w: Duration,
    untraced: Duration,
    traced: Duration,
}

struct Outcome {
    rec: Recorder,
    work: JsonValue,
    sums: Sums,
    engine_nw: Duration,
    mismatches: Vec<String>,
}

fn run_grids(spec: &JsonValue, workers: usize) -> Outcome {
    let specs = field(spec, "grids").as_array().expect("grid array");
    let built: Vec<_> = specs.iter().map(grid::build_grid).collect();
    let grids: Vec<Vec<Scenario>> = built
        .iter()
        .map(|grid| grid.scenarios().expect("benchmark grids expand"))
        .collect();

    let engine = |workers: usize| {
        let runner = BatchRunner::new().workers(workers);
        grids
            .iter()
            .map(|scenarios| timed(|| runner.run(scenarios.clone())).1)
            .sum::<Duration>()
    };
    let replay = |rec: &mut Recorder, work: &mut grid::Work| {
        timed(|| {
            grids
                .iter()
                .map(|scenarios| grid::replay(scenarios, rec, work))
                .collect::<Vec<_>>()
        })
    };
    let engine_nw = (0..REPEATS).map(|_| engine(workers)).sum::<Duration>() / REPEATS as u32;
    let mut rec = Recorder::new(true);
    let mut sums = Sums::default();
    let mut work = grid::Work::default();
    let mut outcomes = Vec::new();
    for _ in 0..REPEATS {
        drop(std::mem::take(&mut outcomes));
        sums.engine_1w += engine(1);
        sums.untraced += replay(&mut Recorder::new(false), &mut grid::Work::default()).1;
        work = grid::Work::default();
        let (replayed, elapsed) = replay(&mut rec, &mut work);
        sums.traced += elapsed;
        outcomes = replayed;
    }
    rec.divide(REPEATS as u64);
    for grid in &built {
        rec.time("grid.expand", || grid.scenarios())
            .expect("benchmark grids expand");
    }

    let mut mismatches = Vec::new();
    for ((g, scenarios), outcomes) in specs.iter().zip(&grids).zip(outcomes) {
        let render = text(g, "render");
        if render != "stored" {
            work.streamed_entries += scenarios.len() as u64;
            let body = grid::render_streamed(scenarios, &outcomes, &mut rec);
            check(g.get("expected_stream"), &body, "stream", &mut mismatches);
            if render == "streamed" {
                work.report_bytes += body.len() as u64;
            }
        }
        if render != "streamed" {
            work.stored_entries += scenarios.len() as u64;
            let body = grid::render_stored(scenarios, outcomes, &mut rec);
            check(g.get("expected"), &body, "report", &mut mismatches);
            work.report_bytes += body.len() as u64;
        }
    }

    let mut counters = JsonValue::object()
        .with("resolved_params_calls", work.resolved_params_calls)
        .with("samples_generated", work.samples_generated)
        .with("lockstep_groups", work.lockstep_groups)
        .with("lockstep_lanes", work.lockstep_lanes)
        .with("soa_lane_samples", work.soa_lane_samples)
        .with("scalar_samples", work.scalar_samples)
        .with("event_samples", work.event_samples)
        .with("delta_cycles", work.delta_cycles)
        .with("process_activations", work.process_activations)
        .with("accepted_steps", work.accepted_steps)
        .with("rejected_steps", work.rejected_steps)
        .with("newton_iterations", work.newton_iterations)
        .with("lu_solves", work.lu_solves)
        .with("slope_updates", work.slope_updates)
        .with("metric_samples", work.metric_samples)
        .with("stored_entries", work.stored_entries)
        .with("streamed_entries", work.streamed_entries)
        .with("report_bytes", work.report_bytes);
    if let Some(serve_spec) = spec.get("serve") {
        let cache = serve::replay(serve_spec, &mut rec);
        counters = counters
            .with("requests", cache.requests)
            .with("cache_hits", cache.hits)
            .with("cache_misses", cache.misses)
            .with("cache_evictions", cache.evictions)
            .with("cache_bytes", cache.bytes);
    }
    Outcome {
        rec,
        work: counters,
        sums,
        engine_nw,
        mismatches,
    }
}

fn run_fit(spec: &JsonValue, workers: usize) -> Outcome {
    let fit_spec = field(spec, "fit");
    let jobs: Vec<_> = field(fit_spec, "csvs")
        .as_array()
        .expect("csv array")
        .iter()
        .map(|path| fit::load_job(Path::new(path.as_str().expect("csv path"))))
        .collect();
    let starts = num(fit_spec, "starts") as usize;
    let seed = num(fit_spec, "seed") as u64;
    let options = FitOptions::default();
    let engine = |workers: usize| {
        let multi = MultiStartOptions {
            starts,
            seed,
            workers,
            routing: SoaRouting::Auto,
            fit: options,
        };
        timed(|| fit_batch(jobs.clone(), &multi).expect("benchmark fits run")).1
    };
    let engine_nw = (0..REPEATS).map(|_| engine(workers)).sum::<Duration>() / REPEATS as u32;
    let replay = |rec: &mut Recorder, work: &mut fit::FitWork| {
        timed(|| fit::replay(&jobs, starts, seed, &options, rec, work))
    };
    let mut rec = Recorder::new(true);
    let mut sums = Sums::default();
    let mut work = fit::FitWork::default();
    let mut report = None;
    for _ in 0..REPEATS {
        sums.engine_1w += engine(1);
        sums.untraced += replay(&mut Recorder::new(false), &mut fit::FitWork::default()).1;
        work = fit::FitWork::default();
        let (replayed, elapsed) = replay(&mut rec, &mut work);
        sums.traced += elapsed;
        report = Some(replayed);
    }
    rec.divide(REPEATS as u64);
    let report = report.expect("at least one repeat");
    let body = fit::render(&report, &mut rec);
    let mut mismatches = Vec::new();
    check(
        fit_spec.get("expected"),
        &body,
        "fit report",
        &mut mismatches,
    );
    Outcome {
        rec,
        work: JsonValue::object()
            .with("evaluations", work.evaluations)
            .with("cost_calls", work.cost_calls)
            .with("lane_samples", work.lane_samples)
            .with("stored_entries", jobs.len())
            .with("report_bytes", body.len()),
        sums,
        engine_nw,
        mismatches,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [spec_path, sidecar_path] = args.as_slice() else {
        eprintln!("usage: perfbench-trace SPEC.json SIDECAR.json");
        std::process::exit(2);
    };
    let spec = JsonValue::parse(&read(spec_path)).expect("valid benchmark spec");
    let workers = num(&spec, "workers") as usize;
    let outcome = match text(&spec, "kind") {
        "grid" | "serve" => run_grids(&spec, workers),
        "fit" => run_fit(&spec, workers),
        other => panic!("unknown spec kind `{other}`"),
    };

    let mut spans = JsonValue::object();
    for (name, stat) in outcome.rec.stats() {
        spans.push(
            *name,
            JsonValue::object()
                .with("count", stat.count)
                .with("total_ns", stat.total_ns)
                .with("self_ns", stat.self_ns)
                .with("allocations", stat.allocations)
                .with("peak_bytes", stat.peak_bytes),
        );
    }
    let layer_ns: u64 = ENGINE_SPANS
        .iter()
        .map(|name| outcome.rec.get(name).total_ns)
        .sum();
    let ns = |d: Duration| d.as_nanos() as u64;
    let sums = &outcome.sums;
    let sidecar = JsonValue::object()
        .with("schema_version", 1_u64)
        .with("kind", "trace")
        .with("workers", workers)
        .with("spans", spans)
        .with("work", outcome.work)
        .with("repeats", REPEATS)
        .with("engine_1w_ns", ns(sums.engine_1w) / REPEATS as u64)
        .with("engine_nw_ns", ns(outcome.engine_nw))
        .with("replay_traced_ns", ns(sums.traced) / REPEATS as u64)
        .with("replay_untraced_ns", ns(sums.untraced) / REPEATS as u64)
        .with(
            "coverage",
            layer_ns as f64 * REPEATS as f64 / ns(sums.engine_1w).max(1) as f64,
        )
        .with(
            "overhead_frac",
            sums.traced.as_secs_f64() / sums.untraced.as_secs_f64().max(1e-9) - 1.0,
        )
        .with(
            "mismatches",
            JsonValue::Array(
                outcome
                    .mismatches
                    .iter()
                    .map(|m| m.as_str().into())
                    .collect(),
            ),
        );
    std::fs::write(sidecar_path, sidecar.to_pretty_string())
        .unwrap_or_else(|err| panic!("cannot write `{sidecar_path}`: {err}"));
}
