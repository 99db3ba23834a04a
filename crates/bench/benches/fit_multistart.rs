//! Multi-start fitting scaling: parameter extraction as a batch workload.
//!
//! Fits two synthetic "measured" loops with 8 starting points each
//! through `hdl_models::fit::fit_batch` at 1, 2, 4 and all available
//! workers, printing the observed wall-clock, aggregate speedup and the
//! best-of cost per loop, then measures each worker count with the
//! Criterion harness.  The report is deterministic at every worker count
//! (asserted by `tests/fit_determinism.rs`); this bench covers the
//! performance side.  Each loop is one task whose 8 starts descend
//! together as SoA lanes, so the pool scales up to one worker per loop
//! and no further (`BENCH_baseline.json` reads 33.9 ms at 1 worker,
//! 22.9 ms at 2 and 23.0 ms at 4).

use criterion::{black_box, Criterion};
use hdl_models::fit::{fit_batch, FitJob, MultiStartOptions};
use ja_hysteresis::backend::HysteresisBackend;
use ja_hysteresis::fitting::FitOptions;
use ja_hysteresis::model::JilesAtherton;
use magnetics::bh::BhCurve;
use magnetics::material::JaParameters;
use waveform::schedule::FieldSchedule;

fn measured_loop(params: JaParameters) -> BhCurve {
    let mut model = JilesAtherton::new(params).expect("valid parameters");
    let schedule = FieldSchedule::major_loop(10_000.0, 100.0, 2).expect("schedule");
    model.run_schedule(&schedule).expect("sweep")
}

fn jobs() -> Vec<FitJob> {
    vec![
        FitJob::with_auto_peak("date2006", measured_loop(JaParameters::date2006())),
        FitJob::with_auto_peak("hard-steel", measured_loop(JaParameters::hard_steel())),
    ]
}

fn options(workers: usize) -> MultiStartOptions {
    MultiStartOptions {
        starts: 8,
        seed: 42,
        workers,
        fit: FitOptions {
            passes: 4,
            sweep_step: 200.0,
            ..FitOptions::default()
        },
        ..MultiStartOptions::default()
    }
}

fn worker_counts() -> Vec<usize> {
    let available = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let mut counts = vec![1, 2, 4];
    if !counts.contains(&available) {
        counts.push(available);
    }
    counts
}

fn print_experiment() {
    println!("== fit multistart: 2 loops x 8 starts (one lockstep descent per loop) ==");
    println!(
        "{:<10} {:>12} {:>14} {:>10} {:>14} {:>12}",
        "workers", "elapsed[ms]", "serial[ms]", "speedup", "best cost", "evaluations"
    );
    let mut baseline_elapsed = None;
    for workers in worker_counts() {
        let report = fit_batch(jobs(), &options(workers)).expect("fit batch");
        let elapsed = report.elapsed.as_secs_f64();
        let baseline = *baseline_elapsed.get_or_insert(elapsed);
        let best_cost = report.loops[0].best_fit().map_or(f64::NAN, |fit| fit.cost);
        let evaluations: usize = report.loops.iter().map(|l| l.evaluations()).sum();
        println!(
            "{:<10} {:>12.1} {:>14.1} {:>9.2}x {:>14.4} {:>12}",
            report.workers,
            elapsed * 1e3,
            report.serial_runtime().as_secs_f64() * 1e3,
            if elapsed > 0.0 {
                baseline / elapsed
            } else {
                0.0
            },
            best_cost,
            evaluations
        );
    }
    println!(
        "\n(speedup = 1-worker elapsed over this row's elapsed; each loop is one\n\
         task, so workers beyond the 2 loops add nothing.  Costs and\n\
         evaluation counts are identical on every row — the worker count\n\
         only moves work, never results.)\n"
    );
}

fn benches(c: &mut Criterion) {
    let mut group = c.benchmark_group("fit_multistart");
    group.sample_size(5);
    for workers in worker_counts() {
        group.bench_function(format!("starts8_workers{workers}"), move |b| {
            b.iter(|| black_box(fit_batch(jobs(), &options(workers)).expect("fit batch")))
        });
    }
    group.finish();
}

fn main() {
    print_experiment();
    let mut criterion = Criterion::default().configure_from_args();
    benches(&mut criterion);
    criterion.final_summary();
}
