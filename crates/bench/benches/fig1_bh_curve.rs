//! Experiment E1 / Fig. 1: the BH curve with non-biased minor loops.
//!
//! Prints the loop metrics of the reproduced figure for the timeless
//! backends, then benchmarks the full sweep through the scenario engine,
//! plus the allocation-free `run_samples_into` driving path.

use criterion::{black_box, Criterion};
use hdl_models::comparison::{fig1_schedule, DEFAULT_STEP};
use hdl_models::scenario::{BackendKind, Scenario};
use ja_bench::{print_metrics_header, print_outcome_row};
use ja_hysteresis::backend::HysteresisBackend;
use ja_hysteresis::model::JilesAtherton;
use magnetics::bh::BhCurve;
use magnetics::material::JaParameters;

fn print_experiment() {
    println!(
        "== E1 / Fig. 1: BH curve, triangular DC sweep ±10 kA/m with non-biased minor loops =="
    );
    println!("paper reference: B spans roughly ±2 T over ±10 kA/m (Fig. 1 axes)\n");
    print_metrics_header();
    for backend in BackendKind::TIMELESS {
        let outcome = Scenario::fig1(backend, DEFAULT_STEP)
            .expect("valid scenario")
            .run()
            .expect("paper parameters cannot diverge");
        print_outcome_row(&outcome);
    }
    println!();
}

fn benches(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig1_bh_curve");
    group.sample_size(10);
    for backend in [BackendKind::SystemC, BackendKind::DirectTimeless] {
        let scenario = Scenario::fig1(backend, DEFAULT_STEP).expect("valid scenario");
        group.bench_function(format!("{}_sweep", backend.label()), |b| {
            b.iter(|| black_box(scenario.run().expect("sweep")))
        });
    }
    // The metrics-only driving path: reset + run_samples_into reuse one
    // model and one trace buffer across iterations (no per-sweep
    // allocation), the lower bound the scenario path is compared against.
    // The samples are flattened once, outside the timed closure.
    let samples = fig1_schedule(DEFAULT_STEP)
        .expect("valid schedule")
        .to_samples();
    let mut model = JilesAtherton::new(JaParameters::date2006()).expect("valid params");
    let mut curve = BhCurve::with_capacity(samples.len());
    group.bench_function("direct-timeless_sweep_into_reused_buffer", |b| {
        b.iter(|| {
            HysteresisBackend::reset(&mut model).expect("reset");
            model.run_samples_into(&samples, &mut curve).expect("sweep");
            black_box(curve.len())
        })
    });
    group.finish();
}

fn main() {
    print_experiment();
    let mut criterion = Criterion::default().configure_from_args();
    benches(&mut criterion);
    criterion.final_summary();
}
