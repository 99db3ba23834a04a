//! Scalar vs structure-of-arrays lockstep execution.
//!
//! Steps N parameter sets through the same major-loop field schedule with
//! (a) the scalar per-lane path — one `DirectTimeless` backend per lane,
//! built and driven exactly as a grid entry would be — and (b) the
//! [`SoaBatch`] lockstep kernel (its `f64` columns, hence the `soa_f64`
//! ids), at lane counts 4, 16 and 64.  The SoA output is bit-identical to
//! the scalar path (asserted in `core::soa` and
//! `tests/soa_equivalence.rs`); this bench
//! covers the performance side and prints the scalar-vs-SoA speedup at 16
//! lanes, the acceptance threshold tracked by the CI bench gate.
//!
//! The `thermal16` and `thermal8` pairs each run one job the way `ja
//! batch` routes a thermal grid: 16 lanes of one material at neighbouring
//! temperatures (a full job), or 8 (the last job of a 136-member group),
//! stepped at 5 A/m.  The SoA arm does what a report path does with the
//! job: one sweep that folds every lane, then each lane's loop metrics from
//! its fold; the scalar arm builds each lane's curve.

use std::time::Instant;

use criterion::{black_box, Criterion};
use hdl_models::scenario::BackendKind;
use ja_hysteresis::config::JaConfig;
use ja_hysteresis::soa::{SoaBatch, SoaPrecision};
use magnetics::bh::BhCurve;
use magnetics::material::JaParameters;
use magnetics::thermal::ThermalCoefficients;
use magnetics::units::Magnetisation;
use waveform::schedule::FieldSchedule;

const LANE_COUNTS: [usize; 3] = [4, 16, 64];

/// Lanes of the thermal-grid jobs: a group's last job and a full one.
const THERMAL_LANES: [usize; 2] = [8, 16];

fn samples() -> Vec<f64> {
    FieldSchedule::major_loop(10_000.0, 50.0, 2)
        .expect("schedule")
        .to_samples()
}

/// Deterministic lane materials: the four presets, each nudged per lane so
/// no two lanes are identical (the grid/fitting workloads this models never
/// repeat a parameter set either).
fn lane_materials(lanes: usize) -> Vec<JaParameters> {
    let presets = [
        JaParameters::date2006(),
        JaParameters::jiles_atherton_1984(),
        JaParameters::soft_ferrite(),
        JaParameters::hard_steel(),
    ];
    (0..lanes)
        .map(|lane| {
            let mut params = presets[lane % presets.len()];
            let scale = 1.0 + 0.01 * (lane / presets.len()) as f64;
            params.m_sat = Magnetisation::new(params.m_sat.value() * scale);
            params.k *= scale;
            params
        })
        .collect()
}

/// One thermal-grid job: the paper material at `lanes` neighbouring
/// temperatures, on a ±8 kA/m major loop at the grid's 5 A/m step.
fn thermal_job(lanes: usize) -> (Vec<JaParameters>, Vec<f64>) {
    let thermal = ThermalCoefficients::date2006();
    let lanes = (0..lanes)
        .map(|lane| {
            JaParameters::date2006()
                .at_temperature(-40.0 + 5.0 * lane as f64, &thermal)
                .expect("below the Curie point")
        })
        .collect();
    let samples = FieldSchedule::major_loop(8_000.0, 5.0, 2)
        .expect("schedule")
        .to_samples();
    (lanes, samples)
}

/// The scalar grid path: one boxed backend per lane, one sweep each over
/// the shared flattened samples.
fn run_scalar(materials: &[JaParameters], samples: &[f64]) -> Vec<BhCurve> {
    materials
        .iter()
        .map(|&params| {
            let mut backend = BackendKind::DirectTimeless
                .build(params, JaConfig::default())
                .expect("backend");
            backend.run_samples(samples).expect("sweep")
        })
        .collect()
}

/// The lockstep path: all lanes advanced through the shared sample sequence.
fn run_soa(
    batch: &mut SoaBatch,
    materials: &[JaParameters],
    samples: &[f64],
    curves: &mut Vec<BhCurve>,
) {
    batch.assign(materials);
    curves.resize_with(materials.len(), BhCurve::new);
    batch.run_samples_into_curves(samples, curves);
}

fn print_speedup_line() {
    let samples = samples();
    let materials = lane_materials(16);
    let mut batch = SoaBatch::new(JaConfig::default(), SoaPrecision::F64).expect("batch");
    let mut curves = Vec::new();

    let time = |mut run: Box<dyn FnMut()>| {
        // One warm-up, then the median of 5 timed repetitions.
        run();
        let mut times: Vec<f64> = (0..5)
            .map(|_| {
                let t0 = Instant::now();
                run();
                t0.elapsed().as_secs_f64()
            })
            .collect();
        times.sort_by(f64::total_cmp);
        times[times.len() / 2]
    };

    let scalar = time(Box::new(|| {
        black_box(run_scalar(&materials, &samples));
    }));
    let soa = time(Box::new(|| {
        run_soa(&mut batch, &materials, &samples, &mut curves);
        black_box(&curves);
    }));
    println!("== soa lockstep: 16 lanes, major loop ±10 kA/m ==");
    println!(
        "scalar {:.2} ms, soa(f64) {:.2} ms -> scalar-vs-SoA speedup {:.2}x at 16 lanes\n",
        scalar * 1e3,
        soa * 1e3,
        scalar / soa
    );
}

fn benches(c: &mut Criterion) {
    let samples = samples();
    let mut group = c.benchmark_group("soa_lockstep");
    group.sample_size(10);
    for lanes in THERMAL_LANES {
        let (thermal, thermal_samples) = thermal_job(lanes);
        group.bench_function(format!("scalar_thermal{lanes}"), |b| {
            b.iter(|| black_box(run_scalar(&thermal, &thermal_samples)))
        });
        let mut batch = SoaBatch::new(JaConfig::default(), SoaPrecision::F64).expect("batch");
        group.bench_function(format!("soa_thermal{lanes}"), |b| {
            b.iter(|| {
                batch.assign(&thermal);
                batch.run_samples(&thermal_samples);
                for lane in 0..lanes {
                    black_box(batch.lane_fold(lane).finish().expect("closed loop"));
                }
            })
        });
    }
    for lanes in LANE_COUNTS {
        let materials = lane_materials(lanes);
        group.bench_function(format!("scalar_lanes{lanes}"), |b| {
            b.iter(|| black_box(run_scalar(&materials, &samples)))
        });
        let mut batch = SoaBatch::new(JaConfig::default(), SoaPrecision::F64).expect("batch");
        let mut curves = Vec::new();
        group.bench_function(format!("soa_f64_lanes{lanes}"), |b| {
            b.iter(|| {
                run_soa(&mut batch, &materials, &samples, &mut curves);
                black_box(&curves);
            })
        });
    }
    group.finish();
}

fn main() {
    print_speedup_line();
    let mut criterion = Criterion::default().configure_from_args();
    benches(&mut criterion);
    criterion.final_summary();
}
