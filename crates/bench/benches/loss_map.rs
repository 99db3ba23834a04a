//! Loss-map grids: scalar vs structure-of-arrays routing.
//!
//! Expands the workload behind `ja lossmap` — two thermally-resolved
//! materials swept over a 3 temperature x 3 frequency operating-point
//! axis, every entry carrying a core-loss breakdown — and runs the same
//! 18-scenario batch through the scalar route and the SoA lockstep route
//! on one worker.  Routing never changes report content (the f64 lanes
//! are bit-identical to scalar runs, asserted in
//! `tests/batch_determinism.rs`), so the only question is cost: the CI
//! bench gate bounds the SoA route's cost relative to the scalar route.

use criterion::{black_box, Criterion};
use hdl_models::exec::{BatchRunner, SoaRouting};
use hdl_models::scenario::{
    BackendKind, BatchReport, Excitation, OperatingPoint, Scenario, ScenarioGrid,
};
use ja_hysteresis::config::JaConfig;
use magnetics::geometry::CoreGeometry;
use magnetics::material::JaParameters;
use magnetics::thermal::ThermalCoefficients;

const TEMPERATURES: [f64; 3] = [-40.0, 25.0, 125.0];
const FREQUENCIES: [f64; 3] = [50.0, 100.0, 200.0];

/// The loss-map grid: 2 materials x 1 backend x 1 config x 1 excitation
/// x 9 operating points = 18 scenarios, one (config, excitation) group
/// that runs as lockstep jobs of 16 and 2 lanes.
fn scenarios() -> Vec<Scenario> {
    let mut grid = ScenarioGrid::new()
        .material_with_thermal(
            "date2006",
            JaParameters::date2006(),
            ThermalCoefficients::date2006(),
        )
        .material_with_thermal(
            "hard-steel",
            JaParameters::hard_steel(),
            ThermalCoefficients::hard_steel(),
        )
        .backend(BackendKind::DirectTimeless)
        .config("dh10", JaConfig::default())
        .excitation(
            "major",
            Excitation::major_loop(10_000.0, 50.0, 1).expect("excitation"),
        );
    for &t_c in &TEMPERATURES {
        for &frequency in &FREQUENCIES {
            grid = grid.operating_point(
                format!("f{frequency}_t{t_c}"),
                OperatingPoint::at_temperature(t_c)
                    .with_frequency(frequency)
                    .with_geometry(CoreGeometry::demo()),
            );
        }
    }
    grid.scenarios().expect("non-empty grid")
}

/// One single-worker batch run under the given routing; the worker count
/// is pinned so the scalar-vs-SoA quotient measures the kernels, not the
/// scheduler.
fn run(scenarios: &[Scenario], routing: SoaRouting) -> BatchReport {
    BatchRunner::new()
        .workers(1)
        .soa_routing(routing)
        .run(scenarios.to_vec())
}

/// Prints the paper material's loss surface — the table `ja lossmap`
/// and `examples/loss_map.rs` render for users.
fn print_loss_surface() {
    let report = run(&scenarios(), SoaRouting::ForceScalar);
    assert_eq!(report.failures().count(), 0, "loss-map grid must succeed");
    println!("== loss map: date2006, +/-10 kA/m major loop, demo core ==");
    println!(
        "{:>8} {:>8} {:>10} {:>12} {:>12}",
        "T[degC]", "f[Hz]", "B_pk[T]", "P_hyst[W]", "P_total[W]"
    );
    for entry in &report.entries {
        let outcome = entry.outcome.as_ref().expect("ok");
        if !entry.scenario.name.contains("/date2006/") {
            continue;
        }
        let op = outcome.operating_point.expect("operating point");
        let loss = outcome.loss.expect("loss breakdown");
        let b_pk = outcome.metrics.expect("metrics").b_max.as_tesla();
        println!(
            "{:>8} {:>8} {:>10.3} {:>12.3} {:>12.3}",
            op.temperature_c.expect("temperature"),
            op.frequency_hz.expect("frequency"),
            b_pk,
            loss.hysteresis_w,
            loss.total_w
        );
    }
    println!();
}

fn benches(c: &mut Criterion) {
    let scenarios = scenarios();
    let mut group = c.benchmark_group("loss_map");
    group.sample_size(10);
    group.bench_function("scalar_route", |b| {
        b.iter(|| black_box(run(&scenarios, SoaRouting::ForceScalar)))
    });
    group.bench_function("soa_route", |b| {
        b.iter(|| black_box(run(&scenarios, SoaRouting::ForceSoa)))
    });
    group.finish();
}

fn main() {
    print_loss_surface();
    let mut criterion = Criterion::default().configure_from_args();
    benches(&mut criterion);
    criterion.final_summary();
}
