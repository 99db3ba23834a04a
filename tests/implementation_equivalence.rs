//! Integration test for experiment E6: every implementation of the paper's
//! timeless technique produces virtually identical results, exercised
//! polymorphically through the `HysteresisBackend` trait, and the
//! event-driven module behaves identically under timeless DC sweeps and
//! timed testbenches.

use ja_repro::hdl_models::scenario::{backend_agreement, BackendKind, Excitation};
use ja_repro::hdl_models::systemc::SystemCJaCore;
use ja_repro::ja_hysteresis::backend::HysteresisBackend;
use ja_repro::ja_hysteresis::config::JaConfig;
use ja_repro::ja_hysteresis::model::JaStatistics;
use ja_repro::magnetics::material::JaParameters;
use ja_repro::waveform::schedule::FieldSchedule;

/// Tolerance for backend equivalence on the Fig. 1 schedule, as a fraction
/// of the peak flux density (~2 T): 1% ≈ 20 mT.  The three timeless
/// implementations share the discretisation but differ in evaluation order
/// — the SystemC port settles the magnetisation feedback over delta cycles
/// while the library model runs a fixed-point iteration — so they agree
/// closely but not bit-exactly.
const EQUIVALENCE_TOLERANCE: f64 = 0.01;

fn fig1_backends() -> Vec<Box<dyn HysteresisBackend>> {
    let params = JaParameters::date2006();
    // ΔH_max stays at the paper's default regardless of the stimulus step:
    // the SystemC monitorH trigger is a strict `>`, so tying it to the
    // sample spacing would starve that port of updates.
    let config = JaConfig::default();
    BackendKind::TIMELESS
        .iter()
        .map(|kind| kind.build(params, config).expect("backend builds"))
        .collect()
}

#[test]
fn all_timeless_backends_agree_through_the_trait() {
    // Drive the SystemC-style, direct, and AMS-timeless backends through
    // the trait over the Fig. 1 schedule and compare sample by sample.
    let samples = FieldSchedule::nested_minor_loops(10_000.0, &[7_500.0, 5_000.0, 2_500.0], 10.0)
        .expect("schedule")
        .to_samples();
    let mut curves = Vec::new();
    for backend in &mut fig1_backends() {
        let curve = backend.run_samples(&samples).expect("sweep");
        assert_eq!(curve.len(), samples.len(), "{}", backend.label());
        assert!(backend.statistics().updates > 0, "{}", backend.label());
        curves.push((backend.label(), curve));
    }
    let peak = curves[0]
        .1
        .peak_flux_density()
        .expect("non-empty curve")
        .as_tesla();
    for (i, (label_a, a)) in curves.iter().enumerate() {
        for (label_b, b) in &curves[i + 1..] {
            let max_diff = a
                .points()
                .iter()
                .zip(b.points())
                .map(|(x, y)| (x.b.as_tesla() - y.b.as_tesla()).abs())
                .fold(0.0, f64::max);
            assert!(
                max_diff / peak < EQUIVALENCE_TOLERANCE,
                "{label_a} vs {label_b}: max |dB| = {max_diff} T ({:.3}% of peak)",
                100.0 * max_diff / peak
            );
        }
    }
}

#[test]
fn backend_agreement_reports_the_same_equivalence() {
    let report = backend_agreement(
        JaParameters::date2006(),
        JaConfig::default(),
        &Excitation::fig1(10.0).expect("excitation"),
        &BackendKind::TIMELESS,
    )
    .expect("all backends run");
    assert!(
        report.relative_diff < EQUIVALENCE_TOLERANCE,
        "implementations diverge by {:.3}% of B_max (worst pair {:?})",
        report.relative_diff * 100.0,
        report.worst_pair
    );
    assert!(report.outcomes.iter().all(|o| o.curve.len() > 10_000));
}

#[test]
fn reset_through_the_trait_restores_every_backend() {
    for backend in &mut fig1_backends() {
        backend.apply_field(8_000.0).expect("drive");
        backend.reset().expect("reset");
        assert_eq!(
            backend.statistics(),
            JaStatistics::default(),
            "{}",
            backend.label()
        );
        let sample = backend.apply_field(0.0).expect("drive after reset");
        assert!(
            sample.b.as_tesla().abs() < 1e-9,
            "{} should be demagnetised after reset",
            backend.label()
        );
    }
}

#[test]
fn reused_kernel_reproduces_the_systemc_curve_byte_for_byte() {
    // The kernel-reuse contract: running the Fig. 1 sweep on a freshly
    // built module and re-running it on the *same* module after
    // `reset()` must produce byte-identical curves — the reused kernel
    // instance is indistinguishable from a new one.
    let samples = FieldSchedule::nested_minor_loops(10_000.0, &[7_500.0, 5_000.0, 2_500.0], 10.0)
        .expect("schedule")
        .to_samples();
    let mut module = SystemCJaCore::date2006().expect("module");
    let fresh = module.run_samples(&samples).expect("first sweep");
    for round in 0..2 {
        HysteresisBackend::reset(&mut module).expect("reset");
        let reused = module.run_samples(&samples).expect("reused sweep");
        assert_eq!(fresh.len(), reused.len());
        for (i, (a, b)) in fresh.points().iter().zip(reused.points()).enumerate() {
            assert_eq!(
                a.b.as_tesla().to_bits(),
                b.b.as_tesla().to_bits(),
                "B diverges at sample {i} on reuse round {round}"
            );
            assert_eq!(
                a.m.as_amperes_per_meter().to_bits(),
                b.m.as_amperes_per_meter().to_bits(),
                "M diverges at sample {i} on reuse round {round}"
            );
        }
    }
}

#[test]
fn timed_and_untimed_execution_of_the_same_module_agree() {
    let samples = FieldSchedule::major_loop(10_000.0, 100.0, 1)
        .expect("schedule")
        .to_samples();

    let mut dc = SystemCJaCore::date2006().expect("module");
    let dc_curve = dc.run_samples(&samples).expect("dc sweep");

    let mut timed = SystemCJaCore::date2006().expect("module");
    let (timed_curve, _times) = timed.run_timed(&samples, 1e-6).expect("timed run");

    assert_eq!(dc_curve.len(), timed_curve.len());
    for (a, b) in dc_curve.points().iter().zip(timed_curve.points()) {
        assert!((a.b.as_tesla() - b.b.as_tesla()).abs() < 1e-12);
    }
}

#[test]
fn equivalence_holds_for_coarser_discretisation_too() {
    let report = backend_agreement(
        JaParameters::date2006(),
        JaConfig::default(),
        &Excitation::fig1(50.0).expect("excitation"),
        &BackendKind::TIMELESS,
    )
    .expect("all backends run");
    assert!(
        report.relative_diff < 0.02,
        "implementations diverge by {:.3}% of B_max at 50 A/m steps",
        report.relative_diff * 100.0
    );
}
