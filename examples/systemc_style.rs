//! The SystemC-style event-driven model: the paper's three processes
//! (`core`, `monitorH`, `Integral`) running on the discrete-event kernel,
//! compared against the equation-style (VHDL-AMS-like) implementation
//! through the backend-agnostic scenario engine.
//!
//! Run with: `cargo run --example systemc_style`

use std::error::Error;

use ja_repro::hdl_models::scenario::{backend_agreement, BackendKind, Excitation, Scenario};
use ja_repro::hdl_models::systemc::SystemCJaCore;
use ja_repro::ja_hysteresis::config::JaConfig;
use ja_repro::magnetics::material::JaParameters;

fn main() -> Result<(), Box<dyn Error>> {
    // DC-sweep (timeless) run of the SystemC port, as a scenario.
    let outcome = Scenario::fig1(BackendKind::SystemC, 10.0)?.run()?;
    let metrics = outcome.full_metrics()?;
    println!("== SystemC-style model, timeless DC sweep (scenario engine) ==");
    println!("  samples            = {}", outcome.curve.len());
    println!("  integral steps     = {}", outcome.stats.updates);
    println!(
        "  sweep time         = {:.1} ms",
        outcome.runtime.as_secs_f64() * 1e3
    );
    println!("  B_max              = {:.3} T", metrics.b_max.as_tesla());
    println!(
        "  coercivity         = {:.0} A/m",
        metrics.coercivity.value()
    );
    println!(
        "  remanence          = {:.3} T",
        metrics.remanence.as_tesla()
    );
    println!("  negative dB/dH     = {}", metrics.negative_slope_samples);

    // Timed testbench: the same module driven by scheduled signal writes —
    // kernel-level machinery the polymorphic API deliberately does not
    // expose, so the module is driven directly here.
    let excitation = Excitation::fig1(10.0)?;
    let samples: Vec<f64> = excitation.to_samples().into_iter().take(2_000).collect();
    let mut timed = SystemCJaCore::date2006()?;
    let (timed_curve, times) = timed.run_timed(&samples, 1e-6)?;
    println!("\n== SystemC-style model, timed testbench ==");
    println!("  events simulated   = {}", times.len());
    println!(
        "  final sim time     = {} us",
        times.last().map(|t| t.as_seconds() * 1e6).unwrap_or(0.0)
    );
    println!(
        "  B at end           = {:.4} T",
        timed_curve.last().map(|p| p.b.as_tesla()).unwrap_or(0.0)
    );
    println!("  process activations= {}", timed.activations());
    println!("  delta cycles       = {}", timed.delta_cycles());

    // Equivalence with the equation-style implementation (paper: "both
    // implementations produce virtually identical results"), through the
    // backend trait.
    let report = backend_agreement(
        JaParameters::date2006(),
        JaConfig::default(),
        &excitation,
        &[BackendKind::SystemC, BackendKind::AmsTimeless],
    )?;
    println!("\n== SystemC vs AMS-style equivalence (experiment E6) ==");
    println!("  samples compared   = {}", report.outcomes[0].curve.len());
    println!("  max |dB|           = {:.3e} T", report.max_abs_diff_b);
    println!("  relative to B_max  = {:.3e}", report.relative_diff);
    println!(
        "  SystemC updates    = {}",
        report.outcomes[0].stats.updates
    );
    println!(
        "  AMS slope updates  = {}",
        report.outcomes[1].stats.updates
    );
    Ok(())
}
