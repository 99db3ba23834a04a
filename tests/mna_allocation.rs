//! Allocation audit of the MNA transient engine's Newton loop.
//!
//! Every Newton iteration stamps, factorises and solves inside the
//! transient workspace, so a circuit solve allocates per *accepted step* at
//! most (the result trace grows), never per iteration.  The inrush circuit
//! runs ~14 iterations per step, so a per-iteration allocation would
//! overshoot these bounds many times over.  On soft ferrite the same
//! circuit's solves cycle between iterates in hundreds of steps, so the
//! history those solves settle from is held to the same bounds.  A counting
//! global allocator makes that a hard assertion; this file is its own test
//! binary so no other test's allocations can land in the count.

use ja_bench::CountingAllocator;
use ja_repro::hdl_models::scenario::{CircuitExcitation, StepControl};
use ja_repro::ja_hysteresis::config::JaConfig;
use ja_repro::magnetics::material::JaParameters;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator::new();

/// Allocations of constant count per solve: the circuit and its elements,
/// the workspace, the result's initial buffers and the field samples.
const SETUP_ALLOCATIONS: usize = 64;

#[test]
fn newton_iterations_do_not_allocate() {
    // (material, whether its solves cycle and so reach the settle)
    let materials = [
        ("date2006", JaParameters::date2006(), false),
        ("soft-ferrite", JaParameters::soft_ferrite(), true),
    ];
    for (material, params, settles) in materials {
        for control in [
            StepControl::Fixed,
            StepControl::Adaptive(CircuitExcitation::adaptive_defaults()),
        ] {
            let spec = CircuitExcitation::inrush().with_step_control(control);
            let before = ALLOC.allocs();
            let run = spec
                .simulate(params, JaConfig::default())
                .expect("inrush solve");
            let allocations = ALLOC.allocs() - before;
            let stats = run.stats;
            let case = format!("{material}, {control:?}");
            assert!(
                stats.newton_iterations > 2 * stats.accepted_steps,
                "{case}: the workload must iterate: {stats:?}"
            );
            assert_eq!(
                stats.settled_iterations > 0,
                settles,
                "{case}: settled iterations: {stats:?}"
            );
            assert!(
                allocations < stats.newton_iterations,
                "{case}: {allocations} allocations for {} Newton iterations",
                stats.newton_iterations
            );
            assert!(
                allocations <= 2 * stats.accepted_steps + SETUP_ALLOCATIONS,
                "{case}: {allocations} allocations for {} accepted steps",
                stats.accepted_steps
            );
        }
    }
}
