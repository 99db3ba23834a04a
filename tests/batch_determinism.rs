//! Determinism of the parallel batch executor: the same `ScenarioGrid` run
//! with 1, 2 and 8 workers must produce `BatchReport`s whose entries are
//! identical in order and in floating-point content (bitwise).  Only the
//! timing fields (`wall_clock`, `elapsed`, `ScenarioOutcome::runtime`) may
//! differ between runs.

use ja_repro::hdl_models::exec::{BatchRunner, SoaRouting};
use ja_repro::hdl_models::scenario::{
    BackendKind, BatchReport, CircuitExcitation, Excitation, OperatingPoint, ScenarioGrid,
    StepControl, TransientStats,
};
use ja_repro::ja_hysteresis::backend::KernelStatistics;
use ja_repro::ja_hysteresis::config::JaConfig;
use ja_repro::magnetics::geometry::CoreGeometry;
use ja_repro::magnetics::material::JaParameters;
use ja_repro::magnetics::thermal::ThermalCoefficients;

fn grid() -> ScenarioGrid {
    ScenarioGrid::new()
        .backends(BackendKind::ALL)
        .config("dh10", JaConfig::default())
        .config("dh25", JaConfig::default().with_dh_max(25.0))
        .excitation("fig1", Excitation::fig1(500.0).expect("excitation"))
        .excitation(
            "major",
            Excitation::major_loop(10_000.0, 250.0, 1).expect("excitation"),
        )
}

/// The mixed grid of the acceptance criterion: field-driven and
/// circuit-driven scenarios (fixed and adaptive stepping) side by side on
/// every backend, over two materials at two temperatures — the shape whose
/// circuit scenarios share one transient solve per (material, temperature,
/// circuit) across the four backends.
fn mixed_grid() -> ScenarioGrid {
    let mut inrush_fixed = CircuitExcitation::inrush();
    inrush_fixed.t_end = 0.02;
    let inrush_adaptive = inrush_fixed
        .clone()
        .with_step_control(StepControl::Adaptive(CircuitExcitation::adaptive_defaults()));
    ScenarioGrid::new()
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
        .operating_point("t-40", OperatingPoint::at_temperature(-40.0))
        .operating_point("t125", OperatingPoint::at_temperature(125.0))
        .backends(BackendKind::ALL)
        .config("dh10", JaConfig::default())
        .excitation(
            "major",
            Excitation::major_loop(10_000.0, 250.0, 1).expect("excitation"),
        )
        .excitation("inrush-fixed", Excitation::Circuit(inrush_fixed))
        .excitation("inrush-adaptive", Excitation::Circuit(inrush_adaptive))
}

/// Everything in a report that must be reproducible, with the
/// floating-point payload captured bit-for-bit.
#[derive(Debug, PartialEq, Eq)]
struct Fingerprint {
    name: String,
    payload: Result<OutcomeBits, String>,
}

#[derive(Debug, PartialEq, Eq)]
struct OutcomeBits {
    backend: &'static str,
    samples: u64,
    updates: u64,
    slope_evaluations: u64,
    curve_bits: Vec<(u64, u64, u64)>,
    metric_bits: Option<(u64, u64, u64, u64)>,
    kernel: Option<KernelStatistics>,
    transient: Option<TransientStats>,
    loss_bits: Option<(u64, u64, u64, u64)>,
    temperature_bits: Option<u64>,
}

fn fingerprint(report: &BatchReport) -> Vec<Fingerprint> {
    report
        .entries
        .iter()
        .map(|entry| Fingerprint {
            name: entry.scenario.name.clone(),
            payload: match &entry.outcome {
                Ok(outcome) => Ok(OutcomeBits {
                    backend: outcome.backend.label(),
                    samples: outcome.stats.samples,
                    updates: outcome.stats.updates,
                    slope_evaluations: outcome.stats.slope_evaluations,
                    curve_bits: outcome
                        .curve
                        .points()
                        .iter()
                        .map(|p| {
                            (
                                p.h.value().to_bits(),
                                p.b.as_tesla().to_bits(),
                                p.m.value().to_bits(),
                            )
                        })
                        .collect(),
                    metric_bits: outcome.metrics.map(|m| {
                        (
                            m.b_max.as_tesla().to_bits(),
                            m.coercivity.value().to_bits(),
                            m.remanence.as_tesla().to_bits(),
                            m.loop_area.to_bits(),
                        )
                    }),
                    kernel: outcome.kernel,
                    transient: outcome.transient,
                    loss_bits: outcome.loss.map(|loss| {
                        (
                            loss.hysteresis_w.to_bits(),
                            loss.eddy_w.to_bits(),
                            loss.total_w.to_bits(),
                            loss.energy_per_cycle_j.to_bits(),
                        )
                    }),
                    temperature_bits: outcome
                        .operating_point
                        .and_then(|op| op.temperature_c)
                        .map(f64::to_bits),
                }),
                Err(err) => Err(err.to_string()),
            },
        })
        .collect()
}

#[test]
fn batch_report_is_bit_identical_across_worker_counts() {
    let scenarios = grid().scenarios().expect("non-empty grid");
    assert_eq!(scenarios.len(), 16); // 4 backends x 2 configs x 2 excitations

    let single = BatchRunner::new().workers(1).run(scenarios.clone());
    assert_eq!(single.workers, 1);
    assert_eq!(single.failures().count(), 0);
    let reference = fingerprint(&single);
    assert_eq!(reference.len(), scenarios.len());

    for workers in [2, 8] {
        let parallel = BatchRunner::new().workers(workers).run(scenarios.clone());
        assert_eq!(parallel.workers, workers);
        assert_eq!(
            fingerprint(&parallel),
            reference,
            "{workers}-worker report diverged from the single-worker report"
        );
    }
}

/// A grid whose (config, excitation) cells hold several `DirectTimeless`
/// scenarios — the shape the Auto routing batches into structure-of-arrays
/// lockstep groups.
fn groupable_grid() -> ScenarioGrid {
    ScenarioGrid::new()
        .material("date2006", JaParameters::date2006())
        .material("ja1984", JaParameters::jiles_atherton_1984())
        .material("soft-ferrite", JaParameters::soft_ferrite())
        .material("hard-steel", JaParameters::hard_steel())
        .backend(BackendKind::DirectTimeless)
        .config("dh10", JaConfig::default())
        .excitation("fig1", Excitation::fig1(500.0).expect("excitation"))
        .excitation(
            "major",
            Excitation::major_loop(10_000.0, 250.0, 1).expect("excitation"),
        )
}

#[test]
fn batch_report_is_bit_identical_across_soa_routing_and_worker_counts() {
    // Lockstep routing is a scheduling decision, not a result decision:
    // the SoA f64 lanes are bit-identical to scalar runs, so forcing
    // either routing at any worker count must reproduce the same report.
    let scenarios = groupable_grid().scenarios().expect("non-empty grid");
    assert_eq!(scenarios.len(), 8); // 4 materials x 1 backend x 2 excitations

    let scalar = BatchRunner::new()
        .workers(1)
        .soa_routing(SoaRouting::ForceScalar)
        .run(scenarios.clone());
    assert_eq!(scalar.failures().count(), 0);
    let reference = fingerprint(&scalar);

    for routing in [SoaRouting::Auto, SoaRouting::ForceSoa] {
        for workers in [1, 2, 8] {
            let routed = BatchRunner::new()
                .workers(workers)
                .soa_routing(routing)
                .run(scenarios.clone());
            assert_eq!(
                fingerprint(&routed),
                reference,
                "{routing:?} report at {workers} workers diverged from the scalar report"
            );
            // And it really did run in lockstep: 4 lanes per group.
            for entry in &routed.entries {
                let outcome = entry.outcome.as_ref().expect("ok");
                assert_eq!(outcome.lockstep_lanes, Some(4), "{}", entry.scenario.name);
            }
        }
    }
}

/// A temperature-axis loss-map grid: two materials resolved through their
/// thermal coefficients at three operating points, each carrying geometry
/// and frequency so every outcome reports a loss breakdown.
fn thermal_loss_grid() -> ScenarioGrid {
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
            Excitation::major_loop(10_000.0, 250.0, 1).expect("excitation"),
        );
    for t_c in [-40.0, 25.0, 125.0] {
        grid = grid.operating_point(
            format!("t{t_c}"),
            OperatingPoint::at_temperature(t_c)
                .with_frequency(50.0)
                .with_geometry(CoreGeometry::demo()),
        );
    }
    grid
}

#[test]
fn thermal_loss_grid_is_bit_identical_across_workers_and_routing() {
    // Thermal parameter resolution happens once per scenario
    // (`Scenario::resolved_params`) and feeds the scalar backends and the
    // SoA lanes identically, so a temperature-axis grid must reproduce
    // bit-for-bit across worker counts AND routing modes.
    let scenarios = thermal_loss_grid().scenarios().expect("non-empty grid");
    assert_eq!(scenarios.len(), 6); // 2 materials x 3 operating points

    let scalar = BatchRunner::new()
        .workers(1)
        .soa_routing(SoaRouting::ForceScalar)
        .run(scenarios.clone());
    assert_eq!(scalar.failures().count(), 0);
    let reference = fingerprint(&scalar);

    // Every outcome carries a loss breakdown and its temperature, and the
    // thermal scaling really happened: the cold and hot runs of the same
    // material trace different curves.
    for f in &reference {
        let bits = f.payload.as_ref().expect("ok");
        assert!(bits.loss_bits.is_some(), "{}: no loss", f.name);
        assert!(
            bits.temperature_bits.is_some(),
            "{}: no temperature",
            f.name
        );
    }
    let curve_of = |needle: &str| {
        let f = reference
            .iter()
            .find(|f| f.name.ends_with(needle))
            .unwrap_or_else(|| panic!("no scenario ends with {needle}"));
        &f.payload.as_ref().expect("ok").curve_bits
    };
    assert_ne!(
        curve_of("date2006/t-40"),
        curve_of("date2006/t125"),
        "thermal scaling must change the traced loop"
    );

    for routing in [
        SoaRouting::ForceScalar,
        SoaRouting::Auto,
        SoaRouting::ForceSoa,
    ] {
        for workers in [1, 2, 8] {
            let routed = BatchRunner::new()
                .workers(workers)
                .soa_routing(routing)
                .run(scenarios.clone());
            assert_eq!(
                fingerprint(&routed),
                reference,
                "{routing:?} thermal report at {workers} workers diverged from the scalar report"
            );
            if !matches!(routing, SoaRouting::ForceScalar) {
                // Grouping keys leave the operating point out: both
                // materials at all three points share the one (config,
                // excitation) cell and run as one six-lane lockstep job.
                for entry in &routed.entries {
                    let outcome = entry.outcome.as_ref().expect("ok");
                    assert_eq!(outcome.lockstep_lanes, Some(6), "{}", entry.scenario.name);
                }
            }
        }
    }
}

#[test]
fn run_batch_default_matches_single_worker() {
    let scenarios = grid().scenarios().expect("non-empty grid");
    let default_run = ja_repro::hdl_models::scenario::run_batch(scenarios.clone());
    let single = BatchRunner::new().workers(1).run(scenarios);
    assert_eq!(fingerprint(&default_run), fingerprint(&single));
    assert!(default_run.workers >= 1);
}

#[test]
fn mixed_field_and_circuit_batch_is_bit_identical_across_worker_counts() {
    let scenarios = mixed_grid().scenarios().expect("non-empty grid");
    // 3 excitations x 4 backends x 2 materials x 2 temperatures.
    assert_eq!(scenarios.len(), 48);

    // The reference solves every circuit scenario on its own.
    let scalar = BatchRunner::new()
        .workers(1)
        .soa_routing(SoaRouting::ForceScalar)
        .run(scenarios.clone());
    assert_eq!(scalar.failures().count(), 0);
    let reference = fingerprint(&scalar);
    // The circuit entries carry transient counters, the field entry none.
    assert!(reference.iter().any(|f| matches!(
        &f.payload,
        Ok(bits) if bits.transient.is_some()
    )));
    assert!(reference.iter().any(|f| matches!(
        &f.payload,
        Ok(bits) if bits.transient.is_none()
    )));

    // Why sharing one solve across backends is sound: each backend's own
    // solve of one (material, temperature, circuit) yields the same
    // transient run, because the in-circuit core never depends on the
    // scenario's backend.
    let transients = |circuit: &str, material_point: &str| -> Vec<TransientStats> {
        scalar
            .entries
            .iter()
            .filter(|e| e.scenario.name.starts_with(circuit))
            .filter(|e| e.scenario.name.ends_with(material_point))
            .map(|e| e.outcome.as_ref().expect("ok").transient.expect("circuit"))
            .collect()
    };
    for circuit in ["inrush-fixed/", "inrush-adaptive/"] {
        for material_point in [
            "date2006/t-40",
            "date2006/t125",
            "hard-steel/t-40",
            "hard-steel/t125",
        ] {
            let runs = transients(circuit, material_point);
            assert_eq!(runs.len(), 4, "{circuit}{material_point}");
            assert!(
                runs.iter().all(|run| *run == runs[0]),
                "{circuit}{material_point}: the transient solve depends on the backend: {runs:?}"
            );
        }
    }

    for routing in [
        SoaRouting::Auto,
        SoaRouting::ForceSoa,
        SoaRouting::ForceScalar,
    ] {
        for workers in [1, 2, 8] {
            let routed = BatchRunner::new()
                .workers(workers)
                .soa_routing(routing)
                .run(scenarios.clone());
            assert_eq!(
                fingerprint(&routed),
                reference,
                "{routing:?} mixed report at {workers} workers diverged from the scalar report"
            );
        }
    }
}
