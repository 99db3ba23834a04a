//! Circuit-driven transient: the JA core inside the MNA solver, fixed-step
//! versus adaptive step control.
//!
//! Reproduces the paper's "model inside an analogue solver" setting as a
//! scenario workload: the magnetising-inrush circuit (sine source → 1 Ω →
//! 200-turn winding on the paper's core) is solved by the transient engine
//! and the solver-chosen field trajectory drives the direct timeless
//! backend.  The experiment table reports the step/Newton economics — the
//! adaptive controller must reach the fixed-step loop accuracy in fewer
//! accepted steps (asserted by `hdl_models::scenario` tests; measured
//! here).
//!
//! The `soft_ferrite_fixed` row runs the fixed-step inrush on soft ferrite,
//! whose Newton solves cycle between iterates in hundreds of steps: the
//! solver settles each cycle at its first exact repeat, and the table
//! prints the iterations it settled instead of solving.
//!
//! The `*_backends4` rows run the inrush circuit on all four backends as a
//! one-worker batch: `shared` routes the four scenarios into one circuit
//! job that solves once and replays the field samples through each
//! backend, `scalar` solves per scenario.  Both produce the same outcomes
//! (asserted in `tests/batch_determinism.rs`); the CI bench gate bounds
//! the shared route's cost relative to the scalar one.

use criterion::{black_box, Criterion};
use hdl_models::exec::{BatchRunner, SoaRouting};
use hdl_models::scenario::{
    BackendKind, BatchReport, CircuitExcitation, Excitation, Scenario, StepControl,
};
use ja_hysteresis::config::JaConfig;
use magnetics::material::JaParameters;

fn scenario(control: StepControl) -> Scenario {
    scenario_on(JaParameters::date2006(), control)
}

fn scenario_on(params: JaParameters, control: StepControl) -> Scenario {
    Scenario::new(
        "circuit-inrush",
        params,
        JaConfig::default(),
        BackendKind::DirectTimeless,
        Excitation::Circuit(CircuitExcitation::inrush().with_step_control(control)),
    )
}

/// The fixed-step inrush circuit on every backend, one worker.
fn run_backends4(routing: SoaRouting) -> BatchReport {
    let scenarios = BackendKind::ALL.map(|backend| {
        let mut scenario = scenario(StepControl::Fixed);
        scenario.backend = backend;
        scenario
    });
    BatchRunner::new()
        .workers(1)
        .soa_routing(routing)
        .run(scenarios)
}

/// The single-scenario rows: the paper's core under both controllers, and
/// soft ferrite under fixed steps.
fn rows() -> [(&'static str, Scenario); 3] {
    [
        ("fixed_step", scenario(StepControl::Fixed)),
        (
            "adaptive",
            scenario(StepControl::Adaptive(CircuitExcitation::adaptive_defaults())),
        ),
        (
            "soft_ferrite_fixed",
            scenario_on(JaParameters::soft_ferrite(), StepControl::Fixed),
        ),
    ]
}

fn print_experiment() {
    println!("== circuit transient: inrush circuit, fixed vs adaptive steps, soft ferrite ==");
    println!(
        "{:<18} {:>9} {:>9} {:>9} {:>9} {:>9} {:>10} {:>10}",
        "row", "accepted", "rejected", "newton", "settled", "nonconv", "peakB[T]", "time[ms]"
    );
    for (label, scenario) in rows() {
        let outcome = scenario.run().expect("scenario");
        let stats = outcome.transient.expect("circuit scenario stats");
        let peak_b = outcome
            .curve
            .points()
            .iter()
            .map(|p| p.b.as_tesla().abs())
            .fold(0.0, f64::max);
        println!(
            "{label:<18} {:>9} {:>9} {:>9} {:>9} {:>9} {:>10.4} {:>10.3}",
            stats.accepted_steps,
            stats.rejected_steps,
            stats.newton_iterations,
            stats.settled_iterations,
            stats.non_converged_steps,
            peak_b,
            outcome.runtime.as_secs_f64() * 1e3,
        );
    }
    println!(
        "\n(equal-accuracy step economy is asserted by the scenario tests; this\n\
         bench tracks the wall-clock of every row)\n"
    );
}

fn benches(c: &mut Criterion) {
    let mut group = c.benchmark_group("circuit_transient");
    group.sample_size(10);
    for (label, scenario) in rows() {
        group.bench_function(label, move |b| {
            b.iter(|| black_box(scenario.run().expect("scenario")))
        });
    }
    for (label, routing) in [
        ("shared_backends4", SoaRouting::Auto),
        ("scalar_backends4", SoaRouting::ForceScalar),
    ] {
        group.bench_function(label, move |b| {
            b.iter(|| {
                let report = run_backends4(routing);
                assert_eq!(report.failures().count(), 0);
                black_box(report)
            })
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
