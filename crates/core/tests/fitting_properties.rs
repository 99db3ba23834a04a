//! Property tests of the fitting subsystem.
//!
//! The key invariant of the coordinate-descent optimizer is monotonicity in
//! the pass budget: every pass can only keep or improve the incumbent, and
//! pass `k` of a `passes = n` run evaluates exactly the same candidate
//! sequence as pass `k` of a `passes = n + 1` run (the step-shrink schedule
//! depends only on the pass index).  So across materials, `fit_major_loop`
//! cost must be non-increasing in `passes`.

use proptest::prelude::*;

use ja_hysteresis::backend::HysteresisBackend;
use ja_hysteresis::fitting::{fit_major_loop, FitOptions};
use ja_hysteresis::model::JilesAtherton;
use magnetics::bh::BhCurve;
use magnetics::material::JaParameters;
use magnetics::units::Magnetisation;
use waveform::schedule::FieldSchedule;

fn measured_loop(params: JaParameters) -> BhCurve {
    let mut model = JilesAtherton::new(params).expect("valid truth parameters");
    let schedule = FieldSchedule::major_loop(10_000.0, 250.0, 2).expect("schedule");
    model.run_samples(&schedule.to_samples()).expect("sweep")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn cost_is_non_increasing_across_passes(
        k in 2_000.0_f64..6_000.0,
        c in 0.05_f64..0.35,
        m_sat_mega in 1.2_f64..1.8,
    ) {
        // A synthetic "measured" loop from known-but-varied parameters.
        let truth = JaParameters::builder()
            .m_sat(Magnetisation::from_megaamperes_per_meter(m_sat_mega))
            .k(k)
            .c(c)
            .build()
            .expect("valid truth parameters");
        let measured = measured_loop(truth);

        let cost_at = |passes: usize| {
            let options = FitOptions {
                passes,
                sweep_step: 250.0,
                ..FitOptions::default()
            };
            fit_major_loop(&measured, 10_000.0, &options)
                .expect("fit runs")
                .cost
        };
        let costs: Vec<f64> = (1..=3).map(cost_at).collect();
        for pair in costs.windows(2) {
            prop_assert!(
                pair[1] <= pair[0],
                "cost increased with more passes: {costs:?} (truth {truth:?})"
            );
        }
    }
}

/// The non-property companion: a deeper pass ladder on the paper's
/// material, including the evaluation-count sanity check (more passes do
/// strictly more work).
#[test]
fn pass_ladder_on_the_paper_material_is_monotone() {
    let measured = measured_loop(JaParameters::date2006());
    let mut previous: Option<(f64, usize)> = None;
    for passes in 1..=6 {
        let options = FitOptions {
            passes,
            sweep_step: 250.0,
            ..FitOptions::default()
        };
        let fit = fit_major_loop(&measured, 10_000.0, &options).expect("fit runs");
        if let Some((cost, evaluations)) = previous {
            assert!(
                fit.cost <= cost,
                "passes {passes}: cost {} > previous {cost}",
                fit.cost
            );
            assert!(fit.evaluations > evaluations);
        }
        previous = Some((fit.cost, fit.evaluations));
    }
}
