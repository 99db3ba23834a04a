//! BH-curve containers.
//!
//! A [`BhCurve`] is an ordered trace of `(H, B)` samples, optionally carrying
//! the magnetisation `M` as well.  This is the common exchange format
//! between the hysteresis models, the loop analysis and the export layer:
//! the models append samples as the excitation is swept, and the analysis
//! reads them back out.

use crate::error::MagneticsError;
use crate::units::{FieldStrength, FluxDensity, Magnetisation};

/// One sample of a BH trace.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct BhPoint {
    /// Applied field `H`.
    pub h: FieldStrength,
    /// Flux density `B`.
    pub b: FluxDensity,
    /// Magnetisation `M` (if the producing model tracks it; zero otherwise).
    pub m: Magnetisation,
}

impl BhPoint {
    /// Creates a sample carrying field, flux density and magnetisation.
    pub fn new(h: FieldStrength, b: FluxDensity, m: Magnetisation) -> Self {
        Self { h, b, m }
    }
}

/// An ordered BH trace.
///
/// The container enforces nothing about the shape of the data — it can hold
/// an initial magnetisation curve, a single loop, or a long sweep with many
/// nested minor loops — and provides the accessors the analysis code needs.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct BhCurve {
    points: Vec<BhPoint>,
}

impl BhCurve {
    /// Creates an empty curve.
    pub fn new() -> Self {
        Self { points: Vec::new() }
    }

    /// Creates an empty curve with pre-allocated capacity.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            points: Vec::with_capacity(capacity),
        }
    }

    /// Appends a sample.
    pub fn push(&mut self, point: BhPoint) {
        self.points.push(point);
    }

    /// Appends a sample given as raw `(H, B, M)` values in SI units.
    pub fn push_raw(&mut self, h: f64, b: f64, m: f64) {
        self.points.push(BhPoint::new(
            FieldStrength::new(h),
            FluxDensity::new(b),
            Magnetisation::new(m),
        ));
    }

    /// Removes every sample while keeping the allocation, so the curve can
    /// be refilled without touching the allocator (hot-path reuse in the
    /// batch executor's sweep drivers).
    pub fn clear(&mut self) {
        self.points.clear();
    }

    /// Reserves capacity for at least `additional` further samples.
    pub fn reserve(&mut self, additional: usize) {
        self.points.reserve(additional);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// `true` when the curve holds no samples.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Borrow the samples.
    pub fn points(&self) -> &[BhPoint] {
        &self.points
    }

    /// Iterator over the samples.
    pub fn iter(&self) -> std::slice::Iter<'_, BhPoint> {
        self.points.iter()
    }

    /// Last sample, if any.
    pub fn last(&self) -> Option<&BhPoint> {
        self.points.last()
    }

    /// Largest |B| in the trace.
    ///
    /// # Errors
    ///
    /// Returns [`MagneticsError::InsufficientSamples`] on an empty curve.
    pub fn peak_flux_density(&self) -> Result<FluxDensity, MagneticsError> {
        self.require(1)?;
        let peak = self
            .points
            .iter()
            .map(|p| p.b.as_tesla().abs())
            .fold(0.0_f64, f64::max);
        Ok(FluxDensity::new(peak))
    }

    /// Largest |H| in the trace.
    ///
    /// # Errors
    ///
    /// Returns [`MagneticsError::InsufficientSamples`] on an empty curve.
    pub fn peak_field(&self) -> Result<FieldStrength, MagneticsError> {
        self.require(1)?;
        let peak = self
            .points
            .iter()
            .map(|p| p.h.value().abs())
            .fold(0.0_f64, f64::max);
        Ok(FieldStrength::new(peak))
    }

    /// Returns the number of samples at which `B` decreases while `H`
    /// increases (or vice versa) — i.e. samples exhibiting a locally
    /// negative differential permeability.  The paper's slope clamp is meant
    /// to drive this count to zero.
    pub fn negative_slope_samples(&self) -> usize {
        let mut count = 0;
        for w in self.points.windows(2) {
            let dh = w[1].h.value() - w[0].h.value();
            let db = w[1].b.as_tesla() - w[0].b.as_tesla();
            if dh != 0.0 && db / dh < 0.0 {
                count += 1;
            }
        }
        count
    }

    fn require(&self, n: usize) -> Result<(), MagneticsError> {
        if self.points.len() < n {
            return Err(MagneticsError::InsufficientSamples {
                required: n,
                available: self.points.len(),
            });
        }
        Ok(())
    }
}

impl FromIterator<BhPoint> for BhCurve {
    fn from_iter<T: IntoIterator<Item = BhPoint>>(iter: T) -> Self {
        Self {
            points: iter.into_iter().collect(),
        }
    }
}

impl Extend<BhPoint> for BhCurve {
    fn extend<T: IntoIterator<Item = BhPoint>>(&mut self, iter: T) {
        self.points.extend(iter);
    }
}

impl<'a> IntoIterator for &'a BhCurve {
    type Item = &'a BhPoint;
    type IntoIter = std::slice::Iter<'a, BhPoint>;

    fn into_iter(self) -> Self::IntoIter {
        self.points.iter()
    }
}

impl IntoIterator for BhCurve {
    type Item = BhPoint;
    type IntoIter = std::vec::IntoIter<BhPoint>;

    fn into_iter(self) -> Self::IntoIter {
        self.points.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle_curve() -> BhCurve {
        // H goes 0 -> 10 -> -10 -> 10, B follows linearly (no hysteresis).
        let mut curve = BhCurve::new();
        let mut h = 0.0;
        let mut dir = 1.0;
        for _ in 0..400 {
            curve.push_raw(h, h * 1e-4, h * 10.0);
            h += dir * 0.25;
            if h >= 10.0 {
                dir = -1.0;
            } else if h <= -10.0 {
                dir = 1.0;
            }
        }
        curve
    }

    #[test]
    fn push_and_len() {
        let mut curve = BhCurve::new();
        assert!(curve.is_empty());
        curve.push(BhPoint::new(
            FieldStrength::new(1.0),
            FluxDensity::new(0.5),
            Magnetisation::zero(),
        ));
        curve.push_raw(2.0, 1.0, 3.0);
        assert_eq!(curve.len(), 2);
        assert_eq!(curve.last().unwrap().h.value(), 2.0);
    }

    #[test]
    fn peak_values() {
        let curve = triangle_curve();
        assert!((curve.peak_field().unwrap().value() - 10.0).abs() < 0.3);
        assert!(curve.peak_flux_density().unwrap().as_tesla() > 9.0e-4);
    }

    #[test]
    fn empty_curve_errors() {
        let curve = BhCurve::new();
        assert!(curve.peak_field().is_err());
        assert!(curve.peak_flux_density().is_err());
    }

    #[test]
    fn negative_slope_count_zero_for_monotone_b_of_h() {
        let curve = triangle_curve();
        assert_eq!(curve.negative_slope_samples(), 0);
    }

    #[test]
    fn negative_slope_detected() {
        let mut curve = BhCurve::new();
        curve.push_raw(0.0, 0.0, 0.0);
        curve.push_raw(1.0, -0.5, 0.0); // B drops while H rises
        curve.push_raw(2.0, 0.5, 0.0);
        assert_eq!(curve.negative_slope_samples(), 1);
    }

    #[test]
    fn from_iterator_and_extend() {
        let pts = vec![
            BhPoint::new(
                FieldStrength::new(0.0),
                FluxDensity::new(0.0),
                Magnetisation::zero(),
            ),
            BhPoint::new(
                FieldStrength::new(1.0),
                FluxDensity::new(0.1),
                Magnetisation::zero(),
            ),
        ];
        let mut curve: BhCurve = pts.clone().into_iter().collect();
        curve.extend(pts);
        assert_eq!(curve.len(), 4);
        assert_eq!((&curve).into_iter().count(), 4);
        assert_eq!(curve.into_iter().count(), 4);
    }

    #[test]
    fn with_capacity_starts_empty() {
        let curve = BhCurve::with_capacity(128);
        assert!(curve.is_empty());
    }

    #[test]
    fn clear_keeps_allocation() {
        let mut curve = BhCurve::new();
        curve.reserve(16);
        curve.push_raw(1.0, 0.1, 10.0);
        curve.clear();
        assert!(curve.is_empty());
        curve.push_raw(2.0, 0.2, 20.0);
        assert_eq!(curve.len(), 1);
        assert_eq!(curve.last().unwrap().h.value(), 2.0);
    }
}
