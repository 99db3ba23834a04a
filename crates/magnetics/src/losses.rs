//! Core-loss estimation from BH traces.
//!
//! The hysteresis loop area gives the energy dissipated per cycle and unit
//! volume; combined with a [`crate::geometry::CoreGeometry`] and an
//! excitation frequency it yields the hysteresis loss in watts.  The
//! classical eddy-current term for thin laminations and a Steinmetz-style
//! power-law fit are provided as well, so the reproduction can report the
//! loss breakdown a magnetics engineer would expect from a core model.
//!
//! The loss of a trace needs only its loop area, its peak |B| and its
//! sample count, which the loop-metrics fold
//! ([`IncrementalLoopMetrics`]) carries: [`core_loss_of`] reads them from
//! a fold, so a trace folded once yields both its loop metrics and its
//! loss, and [`core_loss`] folds a stored curve first.

use crate::bh::BhCurve;
use crate::error::MagneticsError;
use crate::geometry::CoreGeometry;
use crate::loop_analysis::IncrementalLoopMetrics;

/// Loss breakdown of a core under periodic excitation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoreLoss {
    /// Hysteresis loss in watts.
    pub hysteresis_w: f64,
    /// Classical eddy-current loss in watts.
    pub eddy_w: f64,
    /// Total of the two contributions in watts.
    pub total_w: f64,
    /// Energy lost to hysteresis per cycle, in joules.
    pub energy_per_cycle_j: f64,
}

/// Parameters of the classical eddy-current loss model for laminated cores:
/// `P_e = (π²/6) · σ · d² · f² · B_pk² · V`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LaminationSpec {
    /// Electrical conductivity of the lamination material (S/m).
    pub conductivity_s_per_m: f64,
    /// Lamination thickness (m).
    pub thickness_m: f64,
}

impl LaminationSpec {
    /// A typical 0.35 mm silicon-steel lamination.
    pub fn silicon_steel_0p35mm() -> Self {
        Self {
            conductivity_s_per_m: 2.0e6,
            thickness_m: 0.35e-3,
        }
    }
}

/// Computes the loss breakdown of one excitation cycle stored in `curve`:
/// folds the curve once and hands the fold to [`core_loss_of`].
///
/// # Errors
///
/// Those of [`core_loss_of`].
pub fn core_loss(
    curve: &BhCurve,
    geometry: &CoreGeometry,
    frequency_hz: f64,
    lamination: Option<LaminationSpec>,
) -> Result<CoreLoss, MagneticsError> {
    core_loss_of(
        &IncrementalLoopMetrics::of(curve),
        geometry,
        frequency_hz,
        lamination,
    )
}

/// The loss breakdown of the trace folded into `fold`, which must hold
/// exactly one full cycle: its loop area is the per-cycle hysteresis
/// energy density, and its peak |B| drives the eddy-current term.  The
/// loop metrics themselves need not exist — a trace that never crosses
/// `B = 0` still has a loss.
///
/// # Errors
///
/// Returns [`MagneticsError::InvalidParameter`] when the frequency is not
/// finite and positive, or else [`MagneticsError::InsufficientSamples`]
/// when the fold holds fewer than 8 samples.
pub fn core_loss_of(
    fold: &IncrementalLoopMetrics,
    geometry: &CoreGeometry,
    frequency_hz: f64,
    lamination: Option<LaminationSpec>,
) -> Result<CoreLoss, MagneticsError> {
    if !frequency_hz.is_finite() || frequency_hz <= 0.0 {
        return Err(MagneticsError::InvalidParameter {
            name: "frequency_hz",
            value: frequency_hz,
            requirement: "finite and > 0",
        });
    }
    if fold.len() < 8 {
        return Err(MagneticsError::InsufficientSamples {
            required: 8,
            available: fold.len(),
        });
    }
    let volume = geometry.volume_m3();
    let energy_density = fold.loop_area(); // J/m^3 per cycle
    let energy_per_cycle = energy_density * volume;
    let hysteresis_w = energy_per_cycle * frequency_hz;

    let eddy_w = match lamination {
        Some(spec) => {
            let b_pk = fold.peak_flux_density().as_tesla();
            (std::f64::consts::PI.powi(2) / 6.0)
                * spec.conductivity_s_per_m
                * spec.thickness_m.powi(2)
                * frequency_hz.powi(2)
                * b_pk.powi(2)
                * volume
        }
        None => 0.0,
    };

    Ok(CoreLoss {
        hysteresis_w,
        eddy_w,
        total_w: hysteresis_w + eddy_w,
        energy_per_cycle_j: energy_per_cycle,
    })
}

/// Rejects points whose components are not all finite and strictly
/// positive (the log-space fits need every coordinate's logarithm).
fn check_points_positive(points: &[(f64, f64, f64)]) -> Result<(), MagneticsError> {
    for &(f, b, p) in points {
        for value in [f, b, p] {
            if !(value.is_finite() && value > 0.0) {
                return Err(MagneticsError::InvalidParameter {
                    name: "points",
                    value,
                    requirement: "finite and > 0",
                });
            }
        }
    }
    Ok(())
}

/// Fits a Steinmetz power law `P = k_h · f · B_pk^β` (hysteresis-only form,
/// the `α = 1` special case of [`fit_steinmetz_full`]) to a set of
/// `(frequency, peak flux density, measured loss)` points, returning
/// `(k_h, β)`.
///
/// The fit is a linear least-squares in log space; at least two points with
/// distinct peak flux densities are required.
///
/// # Errors
///
/// Returns [`MagneticsError::InsufficientSamples`] for fewer than two
/// points, and [`MagneticsError::InvalidParameter`] when any point is not
/// finite and strictly positive or the peak flux densities are degenerate.
pub fn fit_steinmetz(points: &[(f64, f64, f64)]) -> Result<(f64, f64), MagneticsError> {
    if points.len() < 2 {
        return Err(MagneticsError::InsufficientSamples {
            required: 2,
            available: points.len(),
        });
    }
    check_points_positive(points)?;
    // log(P/f) = log(k_h) + beta * log(B)
    let xs: Vec<f64> = points.iter().map(|&(_, b, _)| b.ln()).collect();
    let ys: Vec<f64> = points.iter().map(|&(f, _, p)| (p / f).ln()).collect();
    let n = xs.len() as f64;
    let mean_x = xs.iter().sum::<f64>() / n;
    let mean_y = ys.iter().sum::<f64>() / n;
    let sxx: f64 = xs.iter().map(|x| (x - mean_x).powi(2)).sum();
    if sxx < 1e-12 {
        return Err(MagneticsError::InvalidParameter {
            name: "points",
            value: sxx,
            requirement: "at least two distinct peak flux densities",
        });
    }
    let sxy: f64 = xs
        .iter()
        .zip(&ys)
        .map(|(x, y)| (x - mean_x) * (y - mean_y))
        .sum();
    let beta = sxy / sxx;
    let k_h = (mean_y - beta * mean_x).exp();
    Ok((k_h, beta))
}

/// Fits the full two-exponent Steinmetz law `P = k · f^α · B_pk^β` to a
/// set of `(frequency, peak flux density, measured loss)` points,
/// returning `(k, α, β)`.
///
/// This is a two-regressor linear least-squares in log space
/// (`ln P = ln k + α·ln f + β·ln B`), solved through its 2×2 normal
/// equations on the centred regressors.  Recovering both exponents needs
/// points that vary frequency and flux density *independently* — a grid
/// with at least two frequencies and two peak flux densities that are not
/// perfectly collinear in log space.  For loss data known to scale
/// linearly with frequency, prefer [`fit_steinmetz`], the documented
/// `α = 1` special case.
///
/// # Errors
///
/// Returns [`MagneticsError::InsufficientSamples`] for fewer than three
/// points, and [`MagneticsError::InvalidParameter`] when any point is not
/// finite and strictly positive or the regressors are (near-)collinear.
pub fn fit_steinmetz_full(points: &[(f64, f64, f64)]) -> Result<(f64, f64, f64), MagneticsError> {
    if points.len() < 3 {
        return Err(MagneticsError::InsufficientSamples {
            required: 3,
            available: points.len(),
        });
    }
    check_points_positive(points)?;
    let n = points.len() as f64;
    let xf: Vec<f64> = points.iter().map(|&(f, _, _)| f.ln()).collect();
    let xb: Vec<f64> = points.iter().map(|&(_, b, _)| b.ln()).collect();
    let ys: Vec<f64> = points.iter().map(|&(_, _, p)| p.ln()).collect();
    let mean_f = xf.iter().sum::<f64>() / n;
    let mean_b = xb.iter().sum::<f64>() / n;
    let mean_y = ys.iter().sum::<f64>() / n;
    let mut sff = 0.0;
    let mut sbb = 0.0;
    let mut sfb = 0.0;
    let mut sfy = 0.0;
    let mut sby = 0.0;
    for i in 0..points.len() {
        let df = xf[i] - mean_f;
        let db = xb[i] - mean_b;
        let dy = ys[i] - mean_y;
        sff += df * df;
        sbb += db * db;
        sfb += df * db;
        sfy += df * dy;
        sby += db * dy;
    }
    // The normal equations [sff sfb; sfb sbb]·[α; β] = [sfy; sby] are
    // singular exactly when the centred regressors are collinear (all one
    // frequency, all one flux density, or f and B locked to a power law
    // of each other).
    let det = sff * sbb - sfb * sfb;
    if det <= 1e-12 * (1.0 + sff * sbb) {
        return Err(MagneticsError::InvalidParameter {
            name: "points",
            value: det,
            requirement: "frequencies and peak flux densities varying independently",
        });
    }
    let alpha = (sfy * sbb - sby * sfb) / det;
    let beta = (sby * sff - sfy * sfb) / det;
    let k = (mean_y - alpha * mean_f - beta * mean_b).exp();
    Ok((k, alpha, beta))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loop_analysis::loop_area;

    fn rectangular_loop(b_s: f64, h_c: f64, n: usize) -> BhCurve {
        // An idealised rectangular loop of area ~ 4 * Hc * Bs.
        let mut curve = BhCurve::new();
        for i in 0..=n {
            let h = -3.0 * h_c + 6.0 * h_c * i as f64 / n as f64;
            let b = if h > -h_c { b_s } else { -b_s };
            curve.push_raw(h, b, 0.0);
        }
        for i in 0..=n {
            let h = 3.0 * h_c - 6.0 * h_c * i as f64 / n as f64;
            let b = if h < h_c { -b_s } else { b_s };
            curve.push_raw(h, b, 0.0);
        }
        curve
    }

    #[test]
    fn hysteresis_loss_scales_with_frequency_and_volume() {
        let curve = rectangular_loop(1.5, 1000.0, 400);
        let geom = CoreGeometry::new(1e-4, 0.1).unwrap();
        let at_50 = core_loss(&curve, &geom, 50.0, None).unwrap();
        let at_100 = core_loss(&curve, &geom, 100.0, None).unwrap();
        assert!(at_50.hysteresis_w > 0.0);
        assert!((at_100.hysteresis_w / at_50.hysteresis_w - 2.0).abs() < 1e-9);
        assert_eq!(at_50.eddy_w, 0.0);
        assert!((at_50.total_w - at_50.hysteresis_w).abs() < 1e-12);
        // Loop area of the ideal rectangle is 4*Hc*Bs = 6000 J/m^3.
        let expected_energy = 6000.0 * geom.volume_m3();
        assert!((at_50.energy_per_cycle_j - expected_energy).abs() / expected_energy < 0.05);
    }

    #[test]
    fn eddy_loss_scales_with_frequency_squared() {
        let curve = rectangular_loop(1.5, 1000.0, 400);
        let geom = CoreGeometry::new(1e-4, 0.1).unwrap();
        let spec = LaminationSpec::silicon_steel_0p35mm();
        let at_50 = core_loss(&curve, &geom, 50.0, Some(spec)).unwrap();
        let at_100 = core_loss(&curve, &geom, 100.0, Some(spec)).unwrap();
        assert!(at_50.eddy_w > 0.0);
        assert!((at_100.eddy_w / at_50.eddy_w - 4.0).abs() < 1e-9);
        assert!(at_100.total_w > at_100.hysteresis_w);
    }

    #[test]
    fn invalid_inputs_rejected() {
        let curve = rectangular_loop(1.5, 1000.0, 400);
        let geom = CoreGeometry::demo();
        assert!(core_loss(&curve, &geom, 0.0, None).is_err());
        let short = BhCurve::new();
        assert_eq!(
            core_loss(&short, &geom, 50.0, None),
            Err(MagneticsError::InsufficientSamples {
                required: 8,
                available: 0,
            })
        );
        // The frequency is checked first.
        assert!(matches!(
            core_loss(&short, &geom, f64::NAN, None),
            Err(MagneticsError::InvalidParameter {
                name: "frequency_hz",
                ..
            })
        ));
    }

    #[test]
    fn folded_loss_is_bit_identical_to_the_standalone_passes() {
        // The fold's area and peak |B| are those of `loop_area` and
        // `peak_flux_density` over the stored curve, so the loss is too.
        let curve = rectangular_loop(1.5, 1000.0, 400);
        let geom = CoreGeometry::new(1e-4, 0.1).unwrap();
        let spec = LaminationSpec::silicon_steel_0p35mm();
        let loss = core_loss(&curve, &geom, 50.0, Some(spec)).unwrap();
        let volume = geom.volume_m3();
        let energy = loop_area(&curve) * volume;
        let b_pk = curve.peak_flux_density().unwrap().as_tesla();
        let eddy = (std::f64::consts::PI.powi(2) / 6.0)
            * spec.conductivity_s_per_m
            * spec.thickness_m.powi(2)
            * 50.0_f64.powi(2)
            * b_pk.powi(2)
            * volume;
        assert_eq!(loss.energy_per_cycle_j.to_bits(), energy.to_bits());
        assert_eq!(loss.hysteresis_w.to_bits(), (energy * 50.0).to_bits());
        assert_eq!(loss.eddy_w.to_bits(), eddy.to_bits());
        let fold = IncrementalLoopMetrics::of(&curve);
        assert_eq!(core_loss_of(&fold, &geom, 50.0, Some(spec)), Ok(loss));
    }

    #[test]
    fn a_trace_without_loop_metrics_still_has_a_loss() {
        // An initial magnetisation curve never crosses B = 0, so it has no
        // loop metrics, but its area and peak still give a loss.
        let mut curve = BhCurve::new();
        for i in 0..100 {
            let h = i as f64 * 10.0;
            curve.push_raw(h, (h / 5000.0).tanh(), 0.0);
        }
        let fold = IncrementalLoopMetrics::of(&curve);
        assert!(fold.finish().is_err());
        let loss = core_loss_of(&fold, &CoreGeometry::demo(), 50.0, None).unwrap();
        assert!(loss.hysteresis_w > 0.0);
    }

    #[test]
    fn steinmetz_fit_recovers_known_exponent() {
        // Synthesise P = 2.5 * f * B^1.8
        let points: Vec<(f64, f64, f64)> = [(50.0, 0.5), (50.0, 1.0), (100.0, 1.5), (200.0, 0.8)]
            .iter()
            .map(|&(f, b): &(f64, f64)| (f, b, 2.5 * f * b.powf(1.8)))
            .collect();
        let (k_h, beta) = fit_steinmetz(&points).unwrap();
        assert!((k_h - 2.5).abs() < 1e-6);
        assert!((beta - 1.8).abs() < 1e-6);
    }

    #[test]
    fn steinmetz_fit_rejects_degenerate_input() {
        assert!(fit_steinmetz(&[(50.0, 1.0, 10.0)]).is_err());
        assert!(fit_steinmetz(&[(50.0, 1.0, 10.0), (60.0, 1.0, 12.0)]).is_err());
        assert!(fit_steinmetz(&[(50.0, -1.0, 10.0), (60.0, 1.0, 12.0)]).is_err());
    }

    #[test]
    fn steinmetz_fit_reports_non_positive_points_as_invalid_parameters() {
        // Regression: a negative loss is a range violation, not a NaN;
        // it must be reported as an InvalidParameter naming the actual
        // requirement rather than as NonFiniteInput.
        let err = fit_steinmetz(&[(50.0, 1.0, -10.0), (60.0, 2.0, 12.0)]).unwrap_err();
        assert_eq!(
            err,
            MagneticsError::InvalidParameter {
                name: "points",
                value: -10.0,
                requirement: "finite and > 0",
            }
        );
        let err = fit_steinmetz_full(&[(50.0, 1.0, 10.0), (60.0, -2.0, 12.0), (100.0, 1.5, 30.0)])
            .unwrap_err();
        assert_eq!(
            err,
            MagneticsError::InvalidParameter {
                name: "points",
                value: -2.0,
                requirement: "finite and > 0",
            }
        );
        // NaN still lands on the same variant with the same requirement.
        assert!(matches!(
            fit_steinmetz(&[(f64::NAN, 1.0, 10.0), (60.0, 2.0, 12.0)]).unwrap_err(),
            MagneticsError::InvalidParameter {
                name: "points",
                requirement: "finite and > 0",
                ..
            }
        ));
    }

    #[test]
    fn full_steinmetz_fit_recovers_both_exponents() {
        // Synthesise P = 0.7 * f^1.3 * B^2.1 over an independent f x B grid.
        let mut points = Vec::new();
        for &f in &[50.0_f64, 100.0, 200.0, 400.0] {
            for &b in &[0.4_f64, 0.8, 1.2, 1.6] {
                points.push((f, b, 0.7 * f.powf(1.3) * b.powf(2.1)));
            }
        }
        let (k, alpha, beta) = fit_steinmetz_full(&points).unwrap();
        assert!((k - 0.7).abs() < 1e-9, "k = {k}");
        assert!((alpha - 1.3).abs() < 1e-9, "alpha = {alpha}");
        assert!((beta - 2.1).abs() < 1e-9, "beta = {beta}");
    }

    #[test]
    fn full_steinmetz_fit_agrees_with_the_hysteresis_special_case() {
        // Data that really is P = k_h * f * B^beta: the full fit must find
        // alpha ~= 1 and the same k/beta the two-parameter form reports.
        let points: Vec<(f64, f64, f64)> = [(50.0, 0.5), (100.0, 1.0), (200.0, 1.5), (400.0, 0.8)]
            .iter()
            .map(|&(f, b): &(f64, f64)| (f, b, 2.5 * f * b.powf(1.8)))
            .collect();
        let (k_h, beta_h) = fit_steinmetz(&points).unwrap();
        let (k, alpha, beta) = fit_steinmetz_full(&points).unwrap();
        assert!((alpha - 1.0).abs() < 1e-9, "alpha = {alpha}");
        assert!((k - k_h).abs() < 1e-6);
        assert!((beta - beta_h).abs() < 1e-6);
    }

    #[test]
    fn full_steinmetz_fit_rejects_collinear_regressors() {
        // Fewer than three points.
        assert!(fit_steinmetz_full(&[(50.0, 1.0, 10.0), (100.0, 2.0, 40.0)]).is_err());
        // Single frequency: alpha is unidentifiable.
        assert!(
            fit_steinmetz_full(&[(50.0, 0.5, 5.0), (50.0, 1.0, 20.0), (50.0, 1.5, 45.0)]).is_err()
        );
        // Single flux density: beta is unidentifiable.
        assert!(
            fit_steinmetz_full(&[(50.0, 1.0, 5.0), (100.0, 1.0, 10.0), (200.0, 1.0, 20.0)])
                .is_err()
        );
        // B locked to a power of f: log-space collinear.
        assert!(fit_steinmetz_full(&[
            (50.0, 50.0, 5.0),
            (100.0, 100.0, 10.0),
            (200.0, 200.0, 20.0)
        ])
        .is_err());
    }
}
