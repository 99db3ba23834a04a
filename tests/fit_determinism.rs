//! Determinism of the multi-start parallel fitting batch: the same jobs
//! with the same seed must produce `FitReport`s that serialise
//! **byte-identically** at 1, 2 and 8 workers — the same contract the
//! scenario batches honour (`tests/batch_determinism.rs`), extended to the
//! fitting workload.  Also asserts the multi-start acceptance property:
//! best-of-N cost is never worse than the single-start cost.

use ja_repro::hdl_models::exec::SoaRouting;
use ja_repro::hdl_models::fit::{fit_batch, FitJob, MultiStartOptions};
use ja_repro::hdl_models::report::fit_report_value;
use ja_repro::ja_hysteresis::backend::HysteresisBackend;
use ja_repro::ja_hysteresis::fitting::FitOptions;
use ja_repro::ja_hysteresis::model::JilesAtherton;
use ja_repro::magnetics::bh::BhCurve;
use ja_repro::magnetics::material::JaParameters;
use ja_repro::waveform::schedule::FieldSchedule;

fn measured_loop(params: JaParameters) -> BhCurve {
    let mut model = JilesAtherton::new(params).expect("valid parameters");
    let schedule = FieldSchedule::major_loop(10_000.0, 100.0, 2).expect("schedule");
    model.run_samples(&schedule.to_samples()).expect("sweep")
}

fn jobs() -> Vec<FitJob> {
    vec![
        FitJob::with_auto_peak("date2006", measured_loop(JaParameters::date2006())),
        FitJob::with_auto_peak("hard-steel", measured_loop(JaParameters::hard_steel())),
    ]
}

fn options(workers: usize) -> MultiStartOptions {
    MultiStartOptions {
        starts: 4,
        seed: 42,
        workers,
        fit: FitOptions {
            passes: 3,
            sweep_step: 200.0,
            ..FitOptions::default()
        },
        ..MultiStartOptions::default()
    }
}

#[test]
fn fit_reports_are_byte_identical_at_1_2_and_8_workers() {
    let reference =
        fit_report_value(&fit_batch(jobs(), &options(1)).expect("fit"), false).to_pretty_string();
    for workers in [2, 8] {
        let report = fit_batch(jobs(), &options(workers)).expect("fit");
        let serialised = fit_report_value(&report, false).to_pretty_string();
        assert_eq!(
            reference, serialised,
            "fit report at {workers} workers differs from the 1-worker run"
        );
    }
    // The timing block is the one worker-dependent part, and it is opt-in.
    let timed =
        fit_report_value(&fit_batch(jobs(), &options(2)).expect("fit"), true).to_pretty_string();
    assert!(timed.contains("\"timing\""));
    assert!(!reference.contains("\"timing\""));
    assert!(!reference.contains("_ns"));
}

#[test]
fn fit_reports_are_byte_identical_across_scalar_and_soa_routing() {
    // Candidate-evaluation routing is a scheduling decision, not a result
    // decision: the SoA f64 lanes are bit-identical to scalar evaluation,
    // so the default report must not change — across routings AND worker
    // counts at once.
    let reference = fit_report_value(
        &fit_batch(
            jobs(),
            &MultiStartOptions {
                routing: SoaRouting::ForceScalar,
                ..options(1)
            },
        )
        .expect("fit"),
        false,
    )
    .to_pretty_string();
    for routing in [SoaRouting::ForceSoa, SoaRouting::Auto] {
        for workers in [1, 2, 8] {
            let report = fit_batch(
                jobs(),
                &MultiStartOptions {
                    routing,
                    ..options(workers)
                },
            )
            .expect("fit");
            assert_eq!(report.lockstep_lanes, Some(4));
            let serialised = fit_report_value(&report, false).to_pretty_string();
            assert_eq!(
                reference, serialised,
                "{routing:?} report at {workers} workers differs from the scalar run"
            );
            assert!(!serialised.contains("backend_routing"));
        }
    }
    // The routing marker rides with the opt-in timing block only.
    let timed =
        fit_report_value(&fit_batch(jobs(), &options(2)).expect("fit"), true).to_pretty_string();
    assert!(timed.contains("\"backend_routing\": \"soa\""));
    assert!(timed.contains("\"lockstep_lanes\": 4"));
}

#[test]
fn best_of_n_is_never_worse_than_the_single_start() {
    let single = fit_batch(
        jobs(),
        &MultiStartOptions {
            starts: 1,
            ..options(0)
        },
    )
    .expect("fit");
    let multi = fit_batch(jobs(), &options(0)).expect("fit");
    for (single_loop, multi_loop) in single.loops.iter().zip(&multi.loops) {
        let single_cost = single_loop.best_fit().expect("single start succeeds").cost;
        let multi_best = multi_loop.best_fit().expect("some start succeeds");
        // Start 0 of the multi-start run is exactly the single-start run.
        let start0 = multi_loop.starts[0].result.as_ref().expect("start 0 runs");
        assert_eq!(start0.cost.to_bits(), single_cost.to_bits());
        assert!(
            multi_best.cost <= single_cost,
            "{}: best-of-{} cost {} worse than single-start {}",
            multi_loop.name,
            multi.starts,
            multi_best.cost,
            single_cost
        );
    }
}
