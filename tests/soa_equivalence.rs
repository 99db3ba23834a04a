//! Cross-crate equivalence tests of the structure-of-arrays lockstep
//! kernel (`ja_hysteresis::soa`): every lane must be **bit-identical** to
//! a scalar [`JilesAtherton`] run of the same parameters, configuration
//! and samples — curve, statistics and error — for every configuration
//! the kernel runs, and each lane's in-kernel fold must equal the fold of
//! that curve: loop metrics and core loss, errors included.

use ja_repro::ja_hysteresis::backend::HysteresisBackend;
use ja_repro::ja_hysteresis::config::{Formulation, JaConfig};
use ja_repro::ja_hysteresis::error::JaError;
use ja_repro::ja_hysteresis::model::{JaStatistics, JilesAtherton};
use ja_repro::ja_hysteresis::soa::{SoaBatch, SoaPrecision};
use ja_repro::magnetics::bh::BhCurve;
use ja_repro::magnetics::error::MagneticsError;
use ja_repro::magnetics::geometry::CoreGeometry;
use ja_repro::magnetics::loop_analysis::IncrementalLoopMetrics;
use ja_repro::magnetics::losses::{core_loss_of, LaminationSpec};
use ja_repro::magnetics::material::JaParameters;
use ja_repro::magnetics::units::Magnetisation;
use ja_repro::waveform::schedule::FieldSchedule;
use proptest::prelude::*;

/// The scalar reference: one model object walking the same samples.
fn scalar_curve(params: JaParameters, config: JaConfig, samples: &[f64]) -> BhCurve {
    let mut model = JilesAtherton::with_config(params, config).expect("valid material");
    model.run_samples(samples).expect("scalar sweep")
}

/// The full scalar outcome of a sweep that may fail: the curve up to the
/// failure, the statistics and the error.
fn scalar_outcome(
    params: JaParameters,
    config: JaConfig,
    samples: &[f64],
) -> (BhCurve, JaStatistics, Option<JaError>) {
    let mut model = JilesAtherton::with_config(params, config).expect("valid material");
    let mut curve = BhCurve::new();
    let error = model.run_samples_into(samples, &mut curve).err();
    (curve, model.statistics(), error)
}

/// What a report keeps of a fold, as bits: its length, its loop metrics
/// and its core loss, errors included.
type FoldBits = (
    usize,
    Result<[u64; 6], MagneticsError>,
    Result<[u64; 4], MagneticsError>,
);

fn fold_bits(fold: &IncrementalLoopMetrics) -> FoldBits {
    let lamination = Some(LaminationSpec::silicon_steel_0p35mm());
    let loss = core_loss_of(fold, &CoreGeometry::demo(), 50.0, lamination);
    (
        fold.len(),
        fold.finish()
            .map(|metrics| metrics.named_values().map(|(_, value)| value.to_bits())),
        loss.map(|loss| {
            [
                loss.hysteresis_w,
                loss.eddy_w,
                loss.total_w,
                loss.energy_per_cycle_j,
            ]
            .map(f64::to_bits)
        }),
    )
}

/// Runs `materials` as lanes of one batch and asserts every lane equals its
/// scalar outcome bit for bit: curve, statistics and error.  Each lane's
/// fold, from that run and from a [`SoaBatch::run_samples`] run that
/// records nothing, must equal the fold of its curve.  Returns the number
/// of lanes that failed.
fn assert_lanes_match_scalar(
    materials: &[JaParameters],
    config: JaConfig,
    samples: &[f64],
    label: &str,
) -> usize {
    let mut batch = SoaBatch::new(config, SoaPrecision::F64).expect("config");
    batch.assign(materials);
    let mut curves = vec![BhCurve::new(); materials.len()];
    batch.run_samples_into_curves(samples, &mut curves);
    let mut unrecorded = SoaBatch::new(config, SoaPrecision::F64).expect("config");
    unrecorded.assign(materials);
    unrecorded.run_samples(samples);

    let mut failed = 0;
    for (lane, (params, curve)) in materials.iter().zip(&curves).enumerate() {
        let label = format!("{label} lane {lane}");
        let (scalar, statistics, error) = scalar_outcome(*params, config, samples);
        assert_eq!(batch.lane_error(lane), error.as_ref(), "{label}: error");
        assert_eq!(
            batch.lane_statistics(lane),
            statistics,
            "{label}: statistics"
        );
        assert_curves_bit_identical(curve, &scalar, &label);
        let folded = fold_bits(&IncrementalLoopMetrics::of(curve));
        assert_eq!(fold_bits(batch.lane_fold(lane)), folded, "{label}: fold");
        assert_eq!(
            fold_bits(unrecorded.lane_fold(lane)),
            folded,
            "{label}: unrecorded fold"
        );
        assert_eq!(unrecorded.lane_error(lane), error.as_ref(), "{label}");
        assert_eq!(unrecorded.lane_statistics(lane), statistics, "{label}");
        failed += usize::from(error.is_some());
    }
    failed
}

const FORMULATIONS: [Formulation; 2] = [Formulation::Date2006, Formulation::Classic];

/// One of the configurations the kernel runs: the paper's single-step
/// forward Euler on the modified Langevin law, in either formulation,
/// with the guards on or off.
fn kernel_config(formulation: Formulation, guards: bool) -> JaConfig {
    let config = JaConfig::default().with_formulation(formulation);
    if guards {
        config
    } else {
        config.without_guards()
    }
}

fn assert_curves_bit_identical(soa: &BhCurve, scalar: &BhCurve, label: &str) {
    assert_eq!(soa.len(), scalar.len(), "{label}: sample count");
    for (i, (p, q)) in soa.points().iter().zip(scalar.points()).enumerate() {
        assert_eq!(
            p.h.value().to_bits(),
            q.h.value().to_bits(),
            "{label}: H at sample {i}"
        );
        assert_eq!(
            p.b.as_tesla().to_bits(),
            q.b.as_tesla().to_bits(),
            "{label}: B at sample {i}"
        );
        assert_eq!(
            p.m.value().to_bits(),
            q.m.value().to_bits(),
            "{label}: M at sample {i}"
        );
    }
}

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

/// The excitation shapes the workspace exercises everywhere: the paper's
/// Fig. 1 double cycle, a plain major loop, and a biased minor loop.
fn schedule(kind: usize, peak: f64, step: f64) -> FieldSchedule {
    match kind {
        0 => FieldSchedule::major_loop(peak, step, 2).expect("schedule"),
        1 => FieldSchedule::nested_minor_loops(peak, &[peak / 2.0, peak / 5.0], step)
            .expect("schedule"),
        _ => FieldSchedule::biased_minor_loop(peak / 4.0, peak / 8.0, 2, step).expect("schedule"),
    }
}

/// Schedules stop here: a 2 A/m step to a 30 kA/m peak would otherwise
/// run for over 100 000 samples.
const MAX_SAMPLES: usize = 4_000;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// f64 lanes are bitwise equal to the scalar model — curve, statistics
    /// and error, and each lane's fold to the fold of its curve — for
    /// random materials, every schedule shape and every configuration the
    /// kernel runs.  2 to 34 lanes reach full register blocks of 16 and of
    /// 8 and short last blocks with spare slots.
    /// Steps from below ΔH_max (10 A/m) make the monitorH gate skip
    /// samples; without guards some lanes diverge.
    #[test]
    fn f64_lanes_are_bit_identical_to_scalar(
        materials in proptest::collection::vec(arbitrary_material(), 2..35),
        kind in 0usize..3,
        peak in 2_000.0_f64..30_000.0,
        step in 2.0_f64..250.0,
        formulation in 0usize..2,
        guards in 0usize..2,
    ) {
        let config = kernel_config(FORMULATIONS[formulation], guards == 1);
        let mut samples = schedule(kind, peak, step).to_samples();
        samples.truncate(MAX_SAMPLES);
        assert_lanes_match_scalar(&materials, config, &samples, &format!("{config:?} kind {kind}"));
    }
}

#[test]
fn every_kernel_configuration_matches_scalar_on_the_thermal_grid_shape() {
    // The thermal grid's excitation: a 5 A/m step at ΔH_max 10, so the
    // monitorH gate fires on every other sample.  The last lane pins so
    // weakly, with no mean-field coupling, that without the guards its
    // state overflows mid-sweep.
    let mut fragile = JaParameters::date2006();
    fragile.k = 1e-3;
    fragile.alpha = 0.0;
    let materials = [
        JaParameters::date2006(),
        JaParameters::jiles_atherton_1984(),
        JaParameters::soft_ferrite(),
        JaParameters::hard_steel(),
        fragile,
    ];
    let samples = FieldSchedule::major_loop(2_500.0, 5.0, 1)
        .expect("schedule")
        .to_samples();
    let mut diverged = 0;
    for formulation in FORMULATIONS {
        for guards in [true, false] {
            let config = kernel_config(formulation, guards);
            diverged +=
                assert_lanes_match_scalar(&materials, config, &samples, &format!("{config:?}"));
        }
    }
    assert!(diverged > 0, "some unguarded lane must diverge mid-sweep");
}

#[test]
fn thermally_derived_parameters_stay_bit_identical_in_lockstep() {
    // The operating-point pipeline derives per-temperature parameters with
    // `JaParameters::at_temperature` and hands them to the SoA kernel like
    // any other material: the lanes must stay bitwise equal to a scalar
    // model constructed from the same derived parameters.
    use ja_repro::magnetics::thermal::ThermalCoefficients;

    let thermal = ThermalCoefficients::date2006();
    let materials: Vec<JaParameters> = [-40.0, 25.0, 125.0]
        .iter()
        .map(|&t_c| {
            JaParameters::date2006()
                .at_temperature(t_c, &thermal)
                .expect("temperature is below the Curie point")
        })
        .collect();
    let samples = FieldSchedule::major_loop(10_000.0, 100.0, 2)
        .expect("schedule")
        .to_samples();
    let config = JaConfig::default();

    let mut batch = SoaBatch::new(config, SoaPrecision::F64).expect("config");
    batch.assign(&materials);
    let mut curves = vec![BhCurve::new(); materials.len()];
    batch.run_samples_into_curves(&samples, &mut curves);

    for (lane, (params, curve)) in materials.iter().zip(&curves).enumerate() {
        assert!(batch.lane_error(lane).is_none());
        let scalar = scalar_curve(*params, config, &samples);
        assert_curves_bit_identical(curve, &scalar, &format!("thermal lane {lane}"));
    }
    // And the derivation is not a no-op: the hot lane's loop differs from
    // the cold lane's.
    assert_ne!(
        curves[0]
            .points()
            .iter()
            .map(|p| p.b.as_tesla().to_bits())
            .collect::<Vec<_>>(),
        curves[2]
            .points()
            .iter()
            .map(|p| p.b.as_tesla().to_bits())
            .collect::<Vec<_>>(),
    );
}

#[test]
fn a_failing_lane_does_not_disturb_its_neighbours() {
    let mut bad = JaParameters::date2006();
    bad.k = -1.0;
    let materials = [JaParameters::date2006(), bad, JaParameters::hard_steel()];
    let samples = FieldSchedule::major_loop(10_000.0, 100.0, 2)
        .expect("schedule")
        .to_samples();
    let config = JaConfig::default();

    let mut batch = SoaBatch::new(config, SoaPrecision::F64).expect("config");
    batch.assign(&materials);
    let mut curves = vec![BhCurve::new(); materials.len()];
    batch.run_samples_into_curves(&samples, &mut curves);

    assert!(batch.lane_error(0).is_none());
    assert!(batch.lane_error(1).is_some());
    assert!(batch.lane_error(2).is_none());
    for lane in [0, 2] {
        let scalar = scalar_curve(materials[lane], config, &samples);
        assert_curves_bit_identical(&curves[lane], &scalar, &format!("lane {lane}"));
    }
}
