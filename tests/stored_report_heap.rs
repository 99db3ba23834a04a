//! Peak-heap audit of the stored-report path.
//!
//! `report::run_batch_report` renders every entry on its worker, so a
//! scenario's B–H curve is dropped as soon as its job finishes and the
//! report buffers only rendered entries.  Its peak heap is therefore set by
//! the jobs in flight, not by entries × samples: a grid four times larger
//! (same excitation, so the same samples per entry) must not raise the
//! peak by more than half.  A counting global allocator makes that a hard
//! assertion.  `BatchRunner::run`, which keeps every curve in its
//! `BatchReport`, is measured alongside to show the audit can tell the
//! difference.

use ja_bench::CountingAllocator;
use ja_repro::hdl_models::exec::BatchRunner;
use ja_repro::hdl_models::report::run_batch_report;
use ja_repro::hdl_models::scenario::{
    BackendKind, Excitation, OperatingPoint, Scenario, ScenarioGrid,
};
use ja_repro::magnetics::geometry::CoreGeometry;
use ja_repro::magnetics::material::JaParameters;
use ja_repro::magnetics::thermal::ThermalCoefficients;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator::new();

/// The heap high-water mark `work` adds above the live size at its start.
fn peak_rise<T>(work: impl FnOnce() -> T) -> usize {
    let baseline = ALLOC.reset_peak();
    let kept = work();
    let rise = ALLOC.peak() - baseline;
    drop(kept);
    rise
}

/// Four materials at `temperatures` 50 Hz operating points,
/// all on one major loop: auto routing splits the one (config, excitation)
/// group into eight-lane lockstep jobs of neighbouring temperatures, and
/// every entry carries a loss object.
fn thermal_grid(temperatures: usize) -> Vec<Scenario> {
    let mut grid = ScenarioGrid::new()
        .backend(BackendKind::DirectTimeless)
        .excitation(
            "major",
            Excitation::major_loop(10_000.0, 10.0, 1).expect("excitation"),
        );
    for (name, params, thermal) in [
        (
            "date2006",
            JaParameters::date2006(),
            ThermalCoefficients::date2006(),
        ),
        (
            "ja1984",
            JaParameters::jiles_atherton_1984(),
            ThermalCoefficients::generic(),
        ),
        (
            "hard-steel",
            JaParameters::hard_steel(),
            ThermalCoefficients::hard_steel(),
        ),
        (
            "soft-ferrite",
            JaParameters::soft_ferrite(),
            ThermalCoefficients::soft_ferrite(),
        ),
    ] {
        grid = grid.material_with_thermal(name, params, thermal);
    }
    for step in 0..temperatures {
        let t_c = -40.0 + 160.0 * step as f64 / temperatures as f64;
        grid = grid.operating_point(
            format!("t{t_c}"),
            OperatingPoint::at_temperature(t_c)
                .with_frequency(50.0)
                .with_geometry(CoreGeometry::demo()),
        );
    }
    grid.scenarios().expect("non-empty grid")
}

#[test]
fn stored_report_peak_heap_does_not_grow_with_entries_times_samples() {
    let small = thermal_grid(4);
    let large = thermal_grid(16);
    assert_eq!(large.len(), 4 * small.len());
    let runner = BatchRunner::new().workers(2);

    let stored = |scenarios: &[Scenario]| {
        peak_rise(|| {
            let (report, summary) = run_batch_report(&runner, scenarios, false);
            assert_eq!(summary.failed, 0);
            report.to_pretty_string()
        })
    };
    // Warm up lazily initialised runtime state before measuring.
    stored(&small);
    let (small_peak, large_peak) = (stored(&small), stored(&large));
    assert!(
        (large_peak as f64) < 1.5 * small_peak as f64,
        "stored-report peak grew from {small_peak} B to {large_peak} B on a 4x grid"
    );

    // The curve-keeping collect grows with the grid: the audit is sensitive.
    let kept = |scenarios: &[Scenario]| peak_rise(|| runner.run(scenarios.to_vec()));
    let (small_kept, large_kept) = (kept(&small), kept(&large));
    assert!(
        large_kept as f64 > 3.0 * small_kept as f64,
        "BatchRunner::run peak {small_kept} B -> {large_kept} B"
    );
    assert!(
        large_peak * 4 < large_kept,
        "{large_peak} B vs {large_kept} B"
    );
}
