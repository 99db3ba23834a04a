//! Steady-state allocation audit of the fitting objective.
//!
//! [`BatchObjective`] owns its schedule samples, SoA columns, curve buffer
//! and cost vector, all grown to a high-water mark on first use — so once
//! warm, a `costs()` call must not touch the allocator at all, on either
//! evaluator.  A counting global allocator makes that a hard assertion
//! instead of a code-review promise.

use ja_bench::CountingAllocator;
use ja_repro::ja_hysteresis::backend::HysteresisBackend;
use ja_repro::ja_hysteresis::fitting::{starting_points, BatchObjective, FitOptions};
use ja_repro::ja_hysteresis::model::JilesAtherton;
use ja_repro::magnetics::loop_analysis::loop_metrics;
use ja_repro::magnetics::material::JaParameters;
use ja_repro::waveform::schedule::FieldSchedule;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator::new();

#[test]
fn warm_batch_objective_cost_calls_do_not_allocate() {
    let measured = {
        let mut model = JilesAtherton::new(JaParameters::date2006()).expect("material");
        let schedule = FieldSchedule::major_loop(10_000.0, 100.0, 2).expect("schedule");
        model.run_schedule(&schedule).expect("sweep")
    };
    let target = loop_metrics(&measured).expect("closed loop");
    let options = FitOptions {
        sweep_step: 200.0,
        ..FitOptions::default()
    };
    let candidates = starting_points(&target, 8, 42).expect("starts");
    for mut objective in [
        BatchObjective::from_target(target, 10_000.0, &options).expect("lane objective"),
        BatchObjective::scalar(target, 10_000.0, &options).expect("scalar objective"),
    ] {
        // First call grows every buffer to the high-water candidate count.
        let warm_up = objective.costs(&candidates);
        assert!(warm_up.iter().all(Result::is_ok));

        let before = ALLOC.allocs();
        for _ in 0..5 {
            let costs = objective.costs(&candidates);
            assert_eq!(costs.len(), candidates.len());
        }
        // Shrinking the candidate count must reuse the high-water buffers
        // too.
        let fewer = objective.costs(&candidates[..3]);
        assert_eq!(fewer.len(), 3);
        let allocations = ALLOC.allocs() - before;
        assert_eq!(
            allocations, 0,
            "warm costs() calls performed {allocations} allocations"
        );
    }
}
