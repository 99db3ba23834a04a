//! Experiment E7: loop metrics implied by the paper's parameter set
//! (section 2), for the paper material and the other presets, plus the cost
//! of the analysis itself.

use criterion::{black_box, Criterion};
use hdl_models::scenario::{BackendKind, Excitation, Scenario};
use ja_bench::{print_metrics_header, print_metrics_row};
use ja_hysteresis::config::JaConfig;
use magnetics::loop_analysis::{self, loop_metrics};
use magnetics::material::JaParameters;

fn sweep(params: JaParameters, peak: f64) -> magnetics::bh::BhCurve {
    Scenario::new(
        "loop-metrics",
        params,
        JaConfig::default(),
        BackendKind::DirectTimeless,
        Excitation::major_loop(peak, peak / 1000.0, 2).expect("excitation"),
    )
    .run()
    .expect("sweep")
    .curve
}

fn print_experiment() {
    println!("== E7: loop metrics of the paper's parameter set (k=4000, c=0.1, Msat=1.6M, a=2000, a2=3500, alpha=0.003) ==\n");
    print_metrics_header();
    let cases = [
        (
            "DATE-2006 paper material",
            JaParameters::date2006(),
            10_000.0,
        ),
        (
            "Jiles-Atherton 1984 iron",
            JaParameters::jiles_atherton_1984(),
            5_000.0,
        ),
        ("soft ferrite preset", JaParameters::soft_ferrite(), 200.0),
        ("hard steel preset", JaParameters::hard_steel(), 50_000.0),
    ];
    for (label, params, peak) in cases {
        let curve = sweep(params, peak);
        print_metrics_row(label, &loop_metrics(&curve).unwrap());
    }
    println!();
}

fn benches(c: &mut Criterion) {
    let curve = sweep(JaParameters::date2006(), 10_000.0);
    let mut group = c.benchmark_group("loop_metrics");
    group.sample_size(20);
    group.bench_function("full_metrics_extraction", |b| {
        b.iter(|| black_box(loop_metrics(&curve).unwrap()))
    });
    group.bench_function("loop_area_only", |b| {
        b.iter(|| black_box(loop_analysis::loop_area(&curve)))
    });
    group.finish();
}

fn main() {
    print_experiment();
    let mut criterion = Criterion::default().configure_from_args();
    benches(&mut criterion);
    criterion.final_summary();
}
