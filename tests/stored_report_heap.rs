//! Peak-heap audit of the report paths.
//!
//! `report::run_batch_report` renders every entry on its worker, so the
//! report buffers only rendered entries, and a lockstep job folds its
//! lanes inside the SoA kernel, so it keeps neither a trajectory nor a
//! curve.  Peak heap is therefore set by the jobs in flight — each
//! worker's shared sample vector — plus the rendered entries, never by
//! entries × samples or lanes × samples.  A counting global allocator makes
//! both halves hard assertions: a grid four times larger (same excitation,
//! so the same samples per entry) adds only rendered entries, and a grid of
//! the same size at four times the samples per entry adds only the
//! workers' sample vectors, on the stored and the NDJSON path alike.
//! `BatchRunner::run`, which keeps every curve in its `BatchReport`, is
//! measured alongside to show the audit can tell the difference.

use std::io;
use std::sync::{Mutex, MutexGuard, PoisonError};

use ja_bench::CountingAllocator;
use ja_repro::hdl_models::exec::{BatchRunner, LOCKSTEP_LANES};
use ja_repro::hdl_models::report::{run_batch_report, write_ndjson_batch};
use ja_repro::hdl_models::scenario::{
    BackendKind, Excitation, OperatingPoint, Scenario, ScenarioGrid,
};
use ja_repro::magnetics::geometry::CoreGeometry;
use ja_repro::magnetics::material::JaParameters;
use ja_repro::magnetics::thermal::ThermalCoefficients;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator::new();

/// Held by each test for its whole run: the allocator counts the whole
/// process, so two tests measuring at once would see each other's heap.
static MEASURING: Mutex<()> = Mutex::new(());

fn measuring() -> MutexGuard<'static, ()> {
    MEASURING.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Bytes of one `(H, B, M)` curve point.
const CURVE_POINT: usize = 24;

/// The heap high-water mark `work` adds above the live size at its start.
fn peak_rise<T>(work: impl FnOnce() -> T) -> usize {
    let baseline = ALLOC.reset_peak();
    let kept = work();
    let rise = ALLOC.peak() - baseline;
    drop(kept);
    rise
}

/// Four materials at `temperatures` 50 Hz operating points, all on one
/// major loop stepped at `step` A/m: auto routing splits the one (config,
/// excitation) group into sixteen-lane lockstep jobs of neighbouring
/// temperatures, and every entry carries a loss object.
fn thermal_grid(temperatures: usize, step: f64) -> Vec<Scenario> {
    let mut grid = ScenarioGrid::new()
        .backend(BackendKind::DirectTimeless)
        .excitation(
            "major",
            Excitation::major_loop(10_000.0, step, 1).expect("excitation"),
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

/// Samples per entry of a grid built by [`thermal_grid`].
fn samples_per_entry(scenarios: &[Scenario]) -> usize {
    scenarios[0].excitation.to_samples().len()
}

#[test]
fn stored_report_peak_heap_does_not_grow_with_entries_times_samples() {
    let _measuring = measuring();
    let small = thermal_grid(4, 10.0);
    let large = thermal_grid(16, 10.0);
    assert_eq!(large.len(), 4 * small.len());
    let runner = BatchRunner::new().workers(2);

    let stored = |scenarios: &[Scenario]| {
        peak_rise(|| {
            let (report, summary) = run_batch_report(&runner, scenarios, false);
            assert_eq!(summary.failed, 0);
            report
        })
    };
    // Warm up lazily initialised runtime state before measuring.
    stored(&small);
    let (small_peak, large_peak) = (stored(&small), stored(&large));
    // Each extra entry may add its rendered entry, never its trace: at
    // most a sixteenth of the curve it would otherwise keep.
    let allowed = (large.len() - small.len()) * samples_per_entry(&small) * CURVE_POINT / 16;
    assert!(
        large_peak < small_peak + allowed,
        "stored-report peak grew from {small_peak} B to {large_peak} B on a 4x grid \
         (allowed {allowed} B)"
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

#[test]
fn report_peak_heap_grows_only_by_the_workers_sample_vectors() {
    let _measuring = measuring();
    // The same 32 entries — two sixteen-lane lockstep jobs, one for each
    // worker to claim — at 10 and at 2.5 A/m, so four times the samples
    // per entry.
    let coarse = thermal_grid(8, 10.0);
    let fine = thermal_grid(8, 2.5);
    assert_eq!(coarse.len(), 2 * LOCKSTEP_LANES);
    assert_eq!(coarse.len(), fine.len());
    assert!(samples_per_entry(&fine) > 3 * samples_per_entry(&coarse));
    let extra_samples = samples_per_entry(&fine) - samples_per_entry(&coarse);
    let workers = 2;
    let runner = BatchRunner::new().workers(workers);

    let stored = |scenarios: &[Scenario]| {
        peak_rise(|| {
            let (report, summary) = run_batch_report(&runner, scenarios, false);
            assert_eq!(summary.failed, 0);
            report
        })
    };
    let ndjson = |scenarios: &[Scenario]| {
        peak_rise(|| {
            let checkpoint =
                write_ndjson_batch(&runner, scenarios, None, &mut io::sink(), |_, _| Ok(()))
                    .expect("a sink never fails");
            assert_eq!(checkpoint.failed, 0);
        })
    };
    // Each worker caches its job's flattened samples (8 B per sample).
    // The slack covers what does not scale with samples: the rendered
    // entries' digits and allocator rounding.  A lockstep job that kept
    // its trajectory (16 lanes × 8 B) and a lane's curve (24 B) would add
    // 152 B per sample per worker.
    let allowed = workers * 8 * extra_samples + 16 * 1024;
    for (path, measure) in [
        ("stored", &stored as &dyn Fn(&[Scenario]) -> usize),
        ("ndjson", &ndjson),
    ] {
        // Warm up lazily initialised runtime state before measuring.
        measure(&coarse);
        let (coarse_peak, fine_peak) = (measure(&coarse), measure(&fine));
        assert!(
            fine_peak <= coarse_peak + allowed,
            "{path} peak grew from {coarse_peak} B to {fine_peak} B at 4x the samples \
             per entry (allowed {allowed} B)"
        );
    }
}
