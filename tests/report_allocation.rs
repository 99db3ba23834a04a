//! Allocation audit of the two batch-entry renderers.
//!
//! `report::ndjson_record` and `report::stored_entry` write an entry's
//! description straight into text through one `JsonWriter`, on a
//! per-thread scratch string that keeps its capacity, so once warm a
//! render of an `ok` entry allocates only the string it returns.  A
//! counting global allocator makes that a hard bound: a renderer that
//! built a `JsonValue` tree first took about 65 allocations for a thermal
//! entry.  (An error entry also formats its error's message, which
//! allocates as it grows; error entries are rare and not gated here.)

use std::time::Duration;

use ja_bench::CountingAllocator;
use ja_repro::hdl_models::report::{ndjson_record, stored_entry};
use ja_repro::hdl_models::scenario::{
    BackendKind, Excitation, OperatingPoint, ScenarioGrid, ScenarioOutcome,
};
use ja_repro::ja_hysteresis::error::JaError;
use ja_repro::magnetics::geometry::CoreGeometry;
use ja_repro::magnetics::losses::LaminationSpec;
use ja_repro::magnetics::material::JaParameters;
use ja_repro::magnetics::thermal::ThermalCoefficients;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator::new();

/// Allocations `render` performs.
fn allocations<T>(render: impl FnOnce() -> T) -> usize {
    let before = ALLOC.allocs();
    let rendered = render();
    let allocations = ALLOC.allocs() - before;
    drop(rendered);
    allocations
}

/// A thermal grid's entry: date2006 at 85 °C on a laminated 50 Hz core,
/// with metrics, temperature, frequency and loss.
fn thermal_entry() -> (String, Result<ScenarioOutcome, JaError>) {
    let scenario = ScenarioGrid::new()
        .backend(BackendKind::DirectTimeless)
        .excitation(
            "major",
            Excitation::major_loop(10_000.0, 250.0, 1).expect("excitation"),
        )
        .material_with_thermal(
            "date2006",
            JaParameters::date2006(),
            ThermalCoefficients::date2006(),
        )
        .operating_point(
            "t85",
            OperatingPoint::at_temperature(85.0)
                .with_frequency(50.0)
                .with_geometry(CoreGeometry::demo())
                .with_lamination(LaminationSpec::silicon_steel_0p35mm()),
        )
        .scenarios()
        .expect("non-empty grid")
        .remove(0);
    let outcome = scenario.run();
    (scenario.name, outcome)
}

#[test]
fn warm_entry_renders_allocate_at_most_twice() {
    let (name, outcome) = thermal_entry();
    let loss = outcome.as_ref().ok().and_then(|outcome| outcome.loss);
    assert!(loss.is_some(), "a thermal entry carries its loss");

    let renders: [(&str, &dyn Fn() -> String); 3] = [
        ("NDJSON record", &|| ndjson_record(7, &name, &outcome)),
        ("stored entry", &|| {
            stored_entry(&name, &outcome, Duration::from_micros(5), false)
        }),
        ("timed stored entry", &|| {
            stored_entry(&name, &outcome, Duration::from_micros(5), true)
        }),
    ];
    for (what, render) in renders {
        // The first render grows the thread's scratch string.
        render();
        let allocations = allocations(render);
        assert!(
            allocations <= 2,
            "a warm {what} performed {allocations} allocations"
        );
    }
}
