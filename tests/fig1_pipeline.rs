//! Integration test for experiment E1: the full Fig. 1 pipeline, from the
//! field schedule through the SystemC-style model to the loop metrics and
//! export layer.

use ja_repro::hdl_models::comparison::{fig1_outcome, fig1_schedule, DEFAULT_STEP};
use ja_repro::hdl_models::scenario::BackendKind;
use ja_repro::hdl_models::systemc::SystemCJaCore;
use ja_repro::ja_hysteresis::backend::HysteresisBackend;
use ja_repro::magnetics::loop_analysis;
use ja_repro::waveform::export::{ascii_plot, write_csv};
use ja_repro::waveform::trace::Trace;

#[test]
fn fig1_bh_curve_matches_paper_envelope() {
    let curve = fig1_outcome(BackendKind::SystemC, DEFAULT_STEP)
        .expect("schedule and kernel are well-formed")
        .curve;
    let metrics = loop_analysis::loop_metrics(&curve).expect("complete loop");

    // Fig. 1 axes: H spans ±10 kA/m and B roughly ±2 T.
    assert!((metrics.h_max.value() - 10_000.0).abs() < 1e-9);
    assert!(
        metrics.b_max.as_tesla() > 1.4 && metrics.b_max.as_tesla() < 2.2,
        "B_max = {} T",
        metrics.b_max.as_tesla()
    );
    // A wide ferromagnetic loop: coercivity in the kA/m range, strong
    // remanence, positive enclosed area.
    assert!(metrics.coercivity.value() > 1_000.0 && metrics.coercivity.value() < 6_000.0);
    assert!(metrics.remanence.as_tesla() > 0.3);
    assert!(metrics.loop_area > 1_000.0);
    // The headline numerical claim: no unphysical negative-slope samples.
    assert_eq!(metrics.negative_slope_samples, 0);
}

#[test]
fn fig1_minor_loops_nest_inside_major_loop() {
    let samples = fig1_schedule(DEFAULT_STEP)
        .expect("valid schedule")
        .to_samples();
    let mut core = SystemCJaCore::date2006().expect("well-formed module");
    let curve = core.run_samples(&samples).expect("sweep");

    // Peak of the whole trace comes from the major loop...
    let b_peak = curve.peak_flux_density().unwrap().as_tesla();
    // ...while the last minor loop (smallest amplitude) stays well inside.
    let tail = &curve.points()[curve.len() - 500..];
    let b_tail_peak = tail
        .iter()
        .map(|p| p.b.as_tesla().abs())
        .fold(0.0, f64::max);
    assert!(
        b_tail_peak < b_peak * 0.9,
        "tail {b_tail_peak} vs peak {b_peak}"
    );
    // Minor loops are non-biased: their field stays within ±2.5 kA/m.
    assert!(tail.iter().all(|p| p.h.value().abs() <= 2_500.0 + 1e-9));
}

#[test]
fn fig1_trace_exports_to_csv_and_ascii() {
    let curve = fig1_outcome(BackendKind::SystemC, 50.0)
        .expect("coarse sweep")
        .curve;
    let mut trace = Trace::new(["h", "b"]);
    for p in curve.points() {
        trace.push_row(&[p.h.value(), p.b.as_tesla()]).unwrap();
    }
    let mut csv = Vec::new();
    write_csv(&trace, &mut csv).expect("csv export");
    let text = String::from_utf8(csv).unwrap();
    assert!(text.starts_with("h,b\n"));
    assert_eq!(text.lines().count(), trace.len() + 1);

    let h: Vec<f64> = curve.points().iter().map(|p| p.h.value()).collect();
    let b: Vec<f64> = curve.points().iter().map(|p| p.b.as_tesla()).collect();
    let plot = ascii_plot(&h, &b, 60, 20).expect("plot");
    assert!(plot.contains('*'));
}
