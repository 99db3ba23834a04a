//! Experiment E9: rendering on the workers decouples peak memory from
//! grid size.
//!
//! Both arms run the one in-order executor and render JSON. The stored
//! path (`report::run_batch_report`) renders each entry on its worker and
//! buffers only the rendered entries until the monolithic report is
//! serialized; the streaming path (`report::write_ndjson_batch`) renders
//! each entry to one NDJSON record and writes it at once. In both, a
//! scenario's curve is dropped on the worker that traced it, so only the
//! in-flight scenarios and the reorder buffer hold curves: the stored
//! peak grows with the rendered report, not with entries × samples, and
//! the streamed peak stays flat. A counting `#[global_allocator]` makes
//! both peaks observable; the timed benchmarks compare the same work
//! (same engine, every entry rendered once).

use criterion::{black_box, Criterion};
use hdl_models::exec::BatchRunner;
use hdl_models::report::{run_batch_report, write_ndjson_batch};
use hdl_models::scenario::{BackendKind, Excitation, Scenario, ScenarioGrid};
use ja_bench::CountingAllocator;
use ja_hysteresis::config::JaConfig;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator::new();

/// A grid of `entries` scenarios that differ only in `ΔH_max`, so entry
/// count scales freely without changing the per-entry work shape.
fn grid(entries: usize) -> Vec<Scenario> {
    let mut grid = ScenarioGrid::new()
        .backend(BackendKind::DirectTimeless)
        .excitation("fig1", Excitation::fig1(500.0).expect("excitation"));
    for i in 0..entries {
        let dh_max = 10.0 + i as f64 * 0.001;
        grid = grid.config(
            format!("dh{dh_max}"),
            JaConfig::default().with_dh_max(dh_max),
        );
    }
    grid.scenarios().expect("non-empty grid")
}

/// The stored report of `ja batch --format json`: entries rendered on the
/// workers, then the whole document serialized.
fn stored_report(scenarios: &[Scenario]) -> String {
    let runner = BatchRunner::new().workers(2);
    let (report, summary) = run_batch_report(&runner, scenarios, false);
    assert_eq!(summary.failed, 0, "grid must succeed");
    report
}

fn stored_peak(scenarios: &[Scenario]) -> usize {
    let baseline = ALLOC.reset_peak();
    let report = stored_report(scenarios);
    let peak = ALLOC.peak() - baseline;
    black_box(&report);
    peak
}

/// The 10 000-entry stored peak measured before the stored path rendered
/// its entries on the workers (it kept every curve in a `BatchReport`).
const STORED_PEAK_BEFORE: (usize, f64) = (10_000, 64.7);

fn streamed_peak(scenarios: &[Scenario]) -> usize {
    let runner = BatchRunner::new().workers(2);
    let baseline = ALLOC.reset_peak();
    let state = write_ndjson_batch(
        &runner,
        scenarios,
        None,
        &mut std::io::sink(),
        |_, _| Ok(()),
    )
    .expect("sink stream cannot fail");
    let peak = ALLOC.peak() - baseline;
    assert_eq!(state.failed, 0, "grid must succeed");
    peak
}

fn mib(bytes: usize) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}

fn print_experiment(smoke: bool) {
    println!("== E9: peak heap of stored vs streamed grid execution (fig1 sweep per entry) ==\n");
    println!(
        "{:>8}  {:>16}  {:>16}  {:>17}  {:>14}",
        "entries", "stored peak MiB", "streamed peak MiB", "stored before MiB", "stored/streamed"
    );
    // The smoke sizes merely prove the measurement runs; the full sizes
    // show the 10x-entries contrast the streaming path exists for.
    let sizes: &[usize] = if smoke {
        &[200, 1_000]
    } else {
        &[1_000, 10_000]
    };
    for &entries in sizes {
        let scenarios = grid(entries);
        let stored = stored_peak(&scenarios);
        let streamed = streamed_peak(&scenarios);
        let (at, mib_before) = STORED_PEAK_BEFORE;
        let before = if at == entries {
            format!("{mib_before:.1}")
        } else {
            "-".to_owned()
        };
        println!(
            "{:>8}  {:>16.2}  {:>16.2}  {:>17}  {:>14.1}",
            entries,
            mib(stored),
            mib(streamed),
            before,
            stored as f64 / streamed as f64
        );
    }
    println!(
        "\nstored peaks grow only with the rendered report (no curve outlives its\njob); streamed peaks track only the in-flight scenarios.\n"
    );
}

fn benches(c: &mut Criterion) {
    let scenarios = grid(512);
    let mut group = c.benchmark_group("stream_grid");
    group.sample_size(10);
    group.bench_function("stored", |b| {
        b.iter(|| black_box(stored_report(&scenarios)))
    });
    group.bench_function("streamed", |b| {
        b.iter(|| {
            let runner = BatchRunner::new().workers(2);
            write_ndjson_batch(&runner, &scenarios, None, &mut std::io::sink(), |_, _| {
                Ok(())
            })
            .expect("sink stream cannot fail")
        })
    });
    group.finish();
}

fn main() {
    let smoke = std::env::args().any(|arg| arg == "--smoke");
    print_experiment(smoke);
    let mut criterion = Criterion::default().configure_from_args();
    benches(&mut criterion);
    criterion.final_summary();
}
