//! Cross-crate property-based tests: physical invariants of the timeless
//! model under randomly generated excitations and materials.

use ja_repro::ja_hysteresis::backend::HysteresisBackend;
use ja_repro::ja_hysteresis::config::JaConfig;
use ja_repro::ja_hysteresis::model::JilesAtherton;
use ja_repro::magnetics::constants::MU0;
use ja_repro::magnetics::material::JaParameters;
use ja_repro::magnetics::units::Magnetisation;
use ja_repro::waveform::schedule::FieldSchedule;
use proptest::prelude::*;

fn arbitrary_material() -> impl Strategy<Value = JaParameters> {
    (
        5.0e5_f64..2.0e6,    // m_sat
        200.0_f64..5_000.0,  // a
        500.0_f64..20_000.0, // k
        1.0e-4_f64..5.0e-3,  // alpha
        0.01_f64..0.8,       // c
    )
        .prop_map(|(m_sat, a, k, alpha, c)| {
            JaParameters::builder()
                .m_sat(Magnetisation::new(m_sat))
                .a(a)
                .a2(a * 1.75)
                .k(k)
                .alpha(alpha)
                .c(c)
                .build()
                .expect("generated parameters are in range")
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// |M| never exceeds M_sat and B never exceeds µ0(|H| + M_sat), for any
    /// material in the physical range and any major-loop excitation.
    #[test]
    fn magnetisation_is_bounded_for_random_materials(
        params in arbitrary_material(),
        peak in 2_000.0_f64..30_000.0,
        step in 5.0_f64..100.0,
    ) {
        let mut model = JilesAtherton::new(params).expect("valid material");
        let schedule = FieldSchedule::major_loop(peak, step, 2).expect("valid schedule");
        let curve = model.run_samples(&schedule.to_samples()).expect("sweep");
        let m_sat = params.m_sat.value();
        for p in curve.points() {
            prop_assert!(p.m.value().abs() <= m_sat * (1.0 + 1e-6));
            let b_bound = MU0 * (p.h.value().abs() + m_sat) * (1.0 + 1e-6);
            prop_assert!(p.b.as_tesla().abs() <= b_bound);
        }
    }

    /// The guarded model never produces a negative differential permeability
    /// sample, for any excitation shape built from nested minor loops.
    #[test]
    fn no_negative_slope_for_random_minor_loop_patterns(
        peak in 5_000.0_f64..20_000.0,
        fractions in proptest::collection::vec(0.1_f64..0.9, 1..4),
        step in 5.0_f64..50.0,
    ) {
        let amplitudes: Vec<f64> = fractions.iter().map(|f| f * peak).collect();
        let schedule = FieldSchedule::nested_minor_loops(peak, &amplitudes, step)
            .expect("valid schedule");
        let mut model = JilesAtherton::new(JaParameters::date2006()).expect("valid material");
        let curve = model.run_samples(&schedule.to_samples()).expect("sweep");
        prop_assert_eq!(curve.negative_slope_samples(), 0);
    }

    /// Scaling ΔH_max between 5 and 50 A/m changes the loop envelope only
    /// marginally — the discretisation is robust to its one tuning knob.
    #[test]
    fn loop_envelope_is_stable_against_dh_max(step in 5.0_f64..50.0) {
        let reference = {
            let mut model = JilesAtherton::with_config(
                JaParameters::date2006(),
                JaConfig::default().with_dh_max(5.0),
            ).expect("valid");
            let schedule = FieldSchedule::major_loop(10_000.0, 5.0, 2).expect("schedule");
            model.run_samples(&schedule.to_samples()).expect("sweep")
                .peak_flux_density().expect("peak").as_tesla()
        };
        let mut model = JilesAtherton::with_config(
            JaParameters::date2006(),
            JaConfig::default().with_dh_max(step),
        ).expect("valid");
        let schedule = FieldSchedule::major_loop(10_000.0, step, 2).expect("schedule");
        let b = model.run_samples(&schedule.to_samples()).expect("sweep")
            .peak_flux_density().expect("peak").as_tesla();
        prop_assert!((b - reference).abs() / reference < 0.1,
            "B_max {b} vs reference {reference} at dh_max {step}");
    }
}

#[test]
fn demagnetisation_returns_the_core_near_the_origin() {
    let mut model = JilesAtherton::new(JaParameters::date2006()).expect("valid");
    model
        .run_samples(
            &FieldSchedule::major_loop(10_000.0, 10.0, 1)
                .expect("schedule")
                .to_samples(),
        )
        .expect("magnetising sweep");
    let before = model.flux_density().as_tesla();
    model
        .run_samples(
            &FieldSchedule::demagnetisation(10_000.0, 20.0, 0.9, 10.0)
                .expect("schedule")
                .to_samples(),
        )
        .expect("demagnetisation sweep");
    let after = model.flux_density().as_tesla();
    assert!(before > 0.5);
    assert!(
        after.abs() < before * 0.35,
        "after = {after} T (before {before} T)"
    );
}
