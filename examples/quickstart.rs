//! Quickstart: reproduce the paper's Fig. 1 BH curve from the library API.
//!
//! Builds the timeless Jiles–Atherton model with the paper's parameters,
//! sweeps it through a triangular DC excitation with nested non-biased
//! minor loops, prints the loop metrics and renders an ASCII version of the
//! BH plot.  The full trace is written to `target/fig1_bh_curve.csv`.
//!
//! Run with: `cargo run --example quickstart`

use std::error::Error;
use std::fs::File;

use ja_repro::hdl_models::scenario::{run_batch, BackendKind, Excitation, ScenarioGrid};
use ja_repro::ja_hysteresis::backend::HysteresisBackend;
use ja_repro::ja_hysteresis::model::JilesAtherton;
use ja_repro::magnetics::loop_analysis;
use ja_repro::magnetics::material::JaParameters;
use ja_repro::waveform::export::{ascii_plot, write_csv};
use ja_repro::waveform::schedule::FieldSchedule;
use ja_repro::waveform::trace::Trace;

fn main() -> Result<(), Box<dyn Error>> {
    // The paper's material: k = 4000 A/m, c = 0.1, Msat = 1.6 MA/m,
    // alpha = 0.003, a = 2000 A/m, a2 = 3500 A/m.
    let params = JaParameters::date2006();
    println!("material parameters: {params:#?}");
    println!(
        "saturation flux density ~ {:.3} T",
        params.saturation_flux_density().as_tesla()
    );

    // Fig. 1 stimulus: major loop to +/-10 kA/m, then non-biased minor loops.
    let schedule = FieldSchedule::nested_minor_loops(10_000.0, &[7_500.0, 5_000.0, 2_500.0], 10.0)?;
    println!(
        "field schedule: {} samples, peak {} kA/m",
        schedule.len(),
        schedule.peak() / 1000.0
    );

    let mut model = JilesAtherton::new(params)?;
    let curve = model.run_samples(&schedule.to_samples())?;

    let metrics = loop_analysis::loop_metrics(&curve)?;
    println!("\n== loop metrics (compare with Fig. 1 axes: +/-10 kA/m, ~+/-2 T) ==");
    println!("  B_max        = {:.3} T", metrics.b_max.as_tesla());
    println!(
        "  H_max        = {:.1} kA/m",
        metrics.h_max.as_kiloamperes_per_meter()
    );
    println!("  coercivity   = {:.0} A/m", metrics.coercivity.value());
    println!("  remanence    = {:.3} T", metrics.remanence.as_tesla());
    println!(
        "  loop area    = {:.0} J/m^3 per full trace",
        metrics.loop_area
    );
    println!(
        "  negative dB/dH samples = {}",
        metrics.negative_slope_samples
    );
    println!(
        "  slope updates = {} over {} samples",
        model.statistics().updates,
        curve.len()
    );

    // ASCII rendition of Fig. 1.
    let h_kam: Vec<f64> = curve
        .points()
        .iter()
        .map(|p| p.h.as_kiloamperes_per_meter())
        .collect();
    let b: Vec<f64> = curve.points().iter().map(|p| p.b.as_tesla()).collect();
    println!("\nBH curve (x: H in kA/m, y: B in T):");
    println!("{}", ascii_plot(&h_kam, &b, 72, 24)?);

    // CSV export for external plotting (columns h, b, m).
    let mut trace = Trace::with_capacity(["h", "b", "m"], curve.len());
    for p in curve.points() {
        trace.push_row(&[p.h.value(), p.b.as_tesla(), p.m.value()])?;
    }
    std::fs::create_dir_all("target")?;
    let file = File::create("target/fig1_bh_curve.csv")?;
    write_csv(&trace, file)?;
    println!("full trace written to target/fig1_bh_curve.csv");

    // The same experiment through the scenario engine: one grid, all four
    // implementation styles, run as a batch (in parallel, one worker per
    // available core — the report order and values are deterministic).
    let grid = ScenarioGrid::new()
        .backends(BackendKind::ALL)
        .excitation("fig1", Excitation::fig1(10.0)?);
    let report = run_batch(grid.scenarios()?);
    println!("\n== the same sweep on every backend (scenario engine) ==");
    println!(
        "{:<42} {:>8} {:>10} {:>10} {:>10}",
        "scenario", "Bmax[T]", "Hc[A/m]", "updates", "time[ms]"
    );
    for outcome in report.successes() {
        let m = outcome.full_metrics()?;
        println!(
            "{:<42} {:>8.3} {:>10.0} {:>10} {:>10.1}",
            outcome.name,
            m.b_max.as_tesla(),
            m.coercivity.value(),
            outcome.stats.updates,
            outcome.runtime.as_secs_f64() * 1e3
        );
    }
    for (scenario, err) in report.failures() {
        println!("{:<42} failed: {err}", scenario.name);
    }
    println!(
        "batch: {} workers, {:.1} ms elapsed, {:.2}x speedup over serial",
        report.workers,
        report.elapsed.as_secs_f64() * 1e3,
        report.speedup()
    );
    Ok(())
}
