//! Hysteresis-loop analysis.
//!
//! Fig. 1 of the paper is a plotted BH curve; since the reproduction works
//! with numeric traces, this module extracts the quantities that
//! characterise such a plot so they can be compared and asserted on:
//!
//! * peak flux density `B_max` (vertical extent of the figure),
//! * coercive field `H_c` (where the loop crosses `B = 0`),
//! * remanent flux density `B_r` (where the loop crosses `H = 0`),
//! * loop area (the hysteresis energy loss per cycle per unit volume),
//! * loop-closure error under periodic excitation,
//! * count of unphysical negative-slope samples.
//!
//! [`IncrementalLoopMetrics`] is the one implementation of the loop
//! metrics: a single-pass fold over `(H, B)` samples.  [`loop_metrics`]
//! folds a stored curve through it, the core-loss estimate of
//! [`crate::losses`] reads its loop area and peak |B|, and the scenario
//! engine and the fit objective fold their samples through it as they are
//! produced.  [`LaneLoopMetrics`] is the same fold for many B traces over
//! one shared H trace, kept as columns; both forms evaluate each window
//! through the same private helpers, and it hands out each lane's fold as
//! an [`IncrementalLoopMetrics`].  [`loop_area`] is a cheap standalone
//! trapezoid for callers that want the area alone.

use crate::bh::BhCurve;
use crate::error::MagneticsError;
use crate::units::{FieldStrength, FluxDensity};

/// Summary metrics of a BH loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoopMetrics {
    /// Peak |B| over the trace.
    pub b_max: FluxDensity,
    /// Peak |H| over the trace.
    pub h_max: FieldStrength,
    /// Coercive field: |H| at the `B = 0` crossings, averaged over the
    /// ascending and descending branches.
    pub coercivity: FieldStrength,
    /// Remanence: |B| at the `H = 0` crossings, averaged over branches.
    pub remanence: FluxDensity,
    /// Enclosed loop area in J/m³ per excitation cycle (∮ H dB).
    pub loop_area: f64,
    /// Number of samples with negative differential permeability.
    pub negative_slope_samples: usize,
}

impl LoopMetrics {
    /// The metrics as `(key, value)` pairs, in the order and with the
    /// unit-suffixed key names of the machine-readable report schema
    /// (`schema_version` 1).  This is the single source of the metric keys:
    /// the CLI's JSON reports and the README's schema table are built from
    /// (and asserted against) this list, so a renamed or added metric shows
    /// up as a compile/test failure rather than silent schema drift.
    ///
    /// `negative_slope_samples` is a count, exactly representable as `f64`
    /// for any realistic trace length.
    pub fn named_values(&self) -> [(&'static str, f64); 6] {
        [
            ("b_max_t", self.b_max.as_tesla()),
            ("h_max_a_per_m", self.h_max.value()),
            ("coercivity_a_per_m", self.coercivity.value()),
            ("remanence_t", self.remanence.as_tesla()),
            ("loop_area_j_per_m3", self.loop_area),
            ("negative_slope_samples", self.negative_slope_samples as f64),
        ]
    }
}

/// Computes the full set of [`LoopMetrics`] for a trace that contains at
/// least one complete loop, by folding it through
/// [`IncrementalLoopMetrics`].
///
/// # Errors
///
/// Returns an error if the trace is too short or never crosses `B = 0` /
/// `H = 0` (e.g. an initial magnetisation curve only).
pub fn loop_metrics(curve: &BhCurve) -> Result<LoopMetrics, MagneticsError> {
    IncrementalLoopMetrics::of(curve).finish()
}

/// Single-pass fold computing [`LoopMetrics`] from samples as they are
/// produced, without ever storing the curve.
///
/// Feed each `(H, B)` sample to [`push`](Self::push) and call
/// [`finish`](Self::finish) at the end: a million-point sweep reduces to
/// its six loop metrics in O(1) space.  The same fold also carries what
/// the core-loss estimate needs — [`loop_area`](Self::loop_area),
/// [`peak_flux_density`](Self::peak_flux_density) and [`len`](Self::len)
/// — so one pass over a trace yields both
/// ([`crate::losses::core_loss_of`]).
///
/// Every running reduction performs exactly the floating-point operations
/// of the plain per-metric passes over a stored curve, in the same order,
/// on the same operands: the |B|/|H| peaks are `fold(0.0, f64::max)`
/// folds (as in [`BhCurve::peak_flux_density`] and
/// [`BhCurve::peak_field`]), the area is the trapezoidal `∮ H dB` sum of
/// [`loop_area`], the negative-slope count is that of
/// [`BhCurve::negative_slope_samples`], and each zero-crossing mean adds
/// its interpolated |values| in trace order.  Unit and property tests
/// hold the fold to that six-pass computation bit for bit, errors
/// included.
#[derive(Debug, Clone, Default)]
pub struct IncrementalLoopMetrics {
    samples: usize,
    /// Running `fold(0.0, f64::max)` over |B|.
    b_abs_max: f64,
    /// Running `fold(0.0, f64::max)` over |H|.
    h_abs_max: f64,
    /// Previous sample as `(H, B)`, shared by every windowed reduction.
    prev: Option<(f64, f64)>,
    /// Signed trapezoidal `∮ H dB`; `.abs()` applied at [`finish`](Self::finish).
    area: f64,
    coercivity_sum: f64,
    coercivity_count: usize,
    remanence_sum: f64,
    remanence_count: usize,
    negative_slope_samples: usize,
}

impl IncrementalLoopMetrics {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds every sample of a stored curve, in trace order.
    pub fn of(curve: &BhCurve) -> Self {
        let mut fold = Self::new();
        for point in curve.iter() {
            fold.push_point(point);
        }
        fold
    }

    /// Number of samples pushed so far.
    pub fn len(&self) -> usize {
        self.samples
    }

    /// `true` when no sample has been pushed yet.
    pub fn is_empty(&self) -> bool {
        self.samples == 0
    }

    /// Feeds one `(H, B)` sample in SI units (A/m, T).
    pub fn push(&mut self, h: f64, b: f64) {
        self.samples += 1;
        self.b_abs_max = self.b_abs_max.max(b.abs());
        self.h_abs_max = self.h_abs_max.max(h.abs());
        if let Some((ph, pb)) = self.prev {
            let window = FieldWindow::new(ph, h);
            let db = b - pb;
            self.area += window.area_term(db);
            self.negative_slope_samples += usize::from(window.falls(db));
            // The two zero-crossing means: B = 0 crossings sampled in H
            // (coercivity), H = 0 crossings sampled in B (remanence).
            if let Some(t) = zero_crossing(pb, b) {
                add_crossing(
                    t,
                    (ph, h),
                    &mut self.coercivity_sum,
                    &mut self.coercivity_count,
                );
            }
            if let Some(t) = window.zero_crossing {
                add_crossing(
                    t,
                    (pb, b),
                    &mut self.remanence_sum,
                    &mut self.remanence_count,
                );
            }
        }
        self.prev = Some((h, b));
    }

    /// Feeds one curve sample.
    pub fn push_point(&mut self, point: &crate::bh::BhPoint) {
        self.push(point.h.value(), point.b.as_tesla());
    }

    /// Enclosed area `∮ H dB` of the samples so far, in J/m³ — the value
    /// [`loop_area`] returns for the same trace.
    pub fn loop_area(&self) -> f64 {
        self.area.abs()
    }

    /// Peak |B| of the samples so far (0 T before the first sample).
    pub fn peak_flux_density(&self) -> FluxDensity {
        FluxDensity::new(self.b_abs_max)
    }

    /// Closes the accumulation and returns the metrics.
    ///
    /// # Errors
    ///
    /// [`MagneticsError::InsufficientSamples`] below 8 samples, then
    /// [`MagneticsError::MissingCrossing`] when the trace never crossed
    /// `B = 0` (coercivity) or else `H = 0` (remanence) away from the
    /// origin.
    pub fn finish(&self) -> Result<LoopMetrics, MagneticsError> {
        if self.samples < 8 {
            return Err(MagneticsError::InsufficientSamples {
                required: 8,
                available: self.samples,
            });
        }
        if self.coercivity_count == 0 {
            return Err(MagneticsError::MissingCrossing {
                what: "B = 0 away from the origin (coercivity)",
            });
        }
        if self.remanence_count == 0 {
            return Err(MagneticsError::MissingCrossing {
                what: "H = 0 away from the origin (remanence)",
            });
        }
        Ok(LoopMetrics {
            b_max: self.peak_flux_density(),
            h_max: FieldStrength::new(self.h_abs_max),
            coercivity: FieldStrength::new(self.coercivity_sum / self.coercivity_count as f64),
            remanence: FluxDensity::new(self.remanence_sum / self.remanence_count as f64),
            loop_area: self.loop_area(),
            negative_slope_samples: self.negative_slope_samples,
        })
    }
}

/// [`IncrementalLoopMetrics`] for many lanes in lockstep: one fold per
/// lane, all over the **same** H samples, kept as columns.
///
/// [`push`](Self::push) feeds every lane its B at the next shared H.  It
/// computes what the lanes share once per sample — the sample count, the
/// peak |H|, the H window's midpoint and step, and where H crosses zero —
/// and updates every lane's columns in one unmasked pass, with the
/// expressions [`IncrementalLoopMetrics::push`] evaluates, so
/// [`lane`](Self::lane) is bit for bit the scalar fold of the same points.
/// A B = 0 crossing (coercivity) is rare: the pass only flags one, and the
/// lanes are interpolated afterwards, on the samples where some lane
/// crossed.
///
/// Every column reuses its capacity across [`reset`](Self::reset)s, so a
/// caller that re-runs the same lane count allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct LaneLoopMetrics {
    /// Samples pushed so far, the same for every lane.
    samples: usize,
    /// Running `fold(0.0, f64::max)` over |H|.
    h_abs_max: f64,
    /// The previous sample's H (meaningless before the first sample).
    prev_h: f64,
    /// Per lane: running `fold(0.0, f64::max)` over |B|.
    b_abs_max: Vec<f64>,
    /// Per lane: the previous sample's B.
    prev_b: Vec<f64>,
    /// Per lane: signed trapezoidal `∮ H dB`.
    area: Vec<f64>,
    negative_slope_samples: Vec<usize>,
    coercivity_sum: Vec<f64>,
    coercivity_count: Vec<usize>,
    remanence_sum: Vec<f64>,
    remanence_count: Vec<usize>,
}

impl LaneLoopMetrics {
    /// An accumulator of no lanes; [`reset`](Self::reset) sizes it.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empties the fold and gives it `lanes` lanes.
    pub fn reset(&mut self, lanes: usize) {
        self.samples = 0;
        self.h_abs_max = 0.0;
        self.prev_h = 0.0;
        for column in [
            &mut self.b_abs_max,
            &mut self.prev_b,
            &mut self.area,
            &mut self.coercivity_sum,
            &mut self.remanence_sum,
        ] {
            column.clear();
            column.resize(lanes, 0.0);
        }
        for column in [
            &mut self.negative_slope_samples,
            &mut self.coercivity_count,
            &mut self.remanence_count,
        ] {
            column.clear();
            column.resize(lanes, 0);
        }
    }

    /// Number of lanes.
    pub fn lanes(&self) -> usize {
        self.b_abs_max.len()
    }

    /// Feeds every lane one sample: the shared field `h` (A/m) and lane
    /// `i`'s flux density `b[i]` (T).  Always inlined, so a caller compiled
    /// for a wider instruction set folds the lanes with it.
    ///
    /// # Panics
    ///
    /// Panics when `b` holds fewer values than there are lanes.
    #[inline(always)]
    pub fn push(&mut self, h: f64, b: &[f64]) {
        // Exactly-sized slices let the optimiser prove every `[lane]`
        // access in bounds, so it can fold the lanes in vector registers.
        let lanes = self.lanes();
        let b = &b[..lanes];
        let b_abs_max = &mut self.b_abs_max[..lanes];
        if self.samples > 0 {
            let ph = self.prev_h;
            let window = FieldWindow::new(ph, h);
            let any_b_crossing = fold_windows(
                &window,
                b,
                &self.prev_b[..lanes],
                b_abs_max,
                &mut self.area[..lanes],
                &mut self.negative_slope_samples[..lanes],
            );
            if any_b_crossing {
                self.add_b_crossings((ph, h), b);
            }
            if let Some(t) = window.zero_crossing {
                self.add_h_crossings(t, b);
            }
        } else {
            for lane in 0..lanes {
                b_abs_max[lane] = b_abs_max[lane].max(b[lane].abs());
            }
        }
        self.prev_b.copy_from_slice(b);
        self.samples += 1;
        self.h_abs_max = self.h_abs_max.max(h.abs());
        self.prev_h = h;
    }

    /// Adds the B = 0 crossing (coercivity) of every lane whose B crossed
    /// zero from `prev_b` to `b`, while H went from `ph` to `h`.  Rare, so
    /// it stays out of line, out of each caller's hot loop.
    #[cold]
    fn add_b_crossings(&mut self, (ph, h): (f64, f64), b: &[f64]) {
        for (lane, &b) in b.iter().enumerate() {
            if let Some(t) = zero_crossing(self.prev_b[lane], b) {
                add_crossing(
                    t,
                    (ph, h),
                    &mut self.coercivity_sum[lane],
                    &mut self.coercivity_count[lane],
                );
            }
        }
    }

    /// Adds every lane's H = 0 crossing (remanence), at the fraction `t` of
    /// its window from `prev_b` to `b`.  Rare, like
    /// [`add_b_crossings`](Self::add_b_crossings).
    #[cold]
    fn add_h_crossings(&mut self, t: f64, b: &[f64]) {
        for (lane, &b) in b.iter().enumerate() {
            add_crossing(
                t,
                (self.prev_b[lane], b),
                &mut self.remanence_sum[lane],
                &mut self.remanence_count[lane],
            );
        }
    }

    /// Lane `lane`'s fold of the samples so far.
    ///
    /// # Panics
    ///
    /// Panics when `lane` is out of range.
    pub fn lane(&self, lane: usize) -> IncrementalLoopMetrics {
        IncrementalLoopMetrics {
            samples: self.samples,
            b_abs_max: self.b_abs_max[lane],
            h_abs_max: self.h_abs_max,
            prev: (self.samples > 0).then(|| (self.prev_h, self.prev_b[lane])),
            area: self.area[lane],
            coercivity_sum: self.coercivity_sum[lane],
            coercivity_count: self.coercivity_count[lane],
            remanence_sum: self.remanence_sum[lane],
            remanence_count: self.remanence_count[lane],
            negative_slope_samples: self.negative_slope_samples[lane],
        }
    }
}

/// The fold pass of [`LaneLoopMetrics::push`] over every lane's window,
/// `prev_b[i]` to `b[i]` at the shared H `window`: the |B| peak, the area
/// and the negative-slope count.  Returns whether some lane's B crossed
/// zero.  The columns are parameters so the optimiser knows they do not
/// overlap.
#[inline(always)]
fn fold_windows(
    window: &FieldWindow,
    b: &[f64],
    prev_b: &[f64],
    b_abs_max: &mut [f64],
    area: &mut [f64],
    negative_slope_samples: &mut [usize],
) -> bool {
    let lanes = b.len();
    let (prev_b, b_abs_max) = (&prev_b[..lanes], &mut b_abs_max[..lanes]);
    let (area, negative) = (&mut area[..lanes], &mut negative_slope_samples[..lanes]);
    let mut any_b_crossing = false;
    for lane in 0..lanes {
        let (pb, b) = (prev_b[lane], b[lane]);
        let db = b - pb;
        b_abs_max[lane] = b_abs_max[lane].max(b.abs());
        area[lane] += window.area_term(db);
        negative[lane] += usize::from(window.falls(db));
        any_b_crossing |= crosses_zero(pb, b);
    }
    any_b_crossing
}

/// The H side of one `(previous, current)` window: what every fold over the
/// same H samples shares.
#[derive(Debug, Clone, Copy)]
struct FieldWindow {
    /// `0.5 (H' + H)`, the trapezoid's H.
    mid: f64,
    /// `H − H'`.
    dh: f64,
    /// Where H crosses zero in the window ([`zero_crossing`]).
    zero_crossing: Option<f64>,
}

impl FieldWindow {
    #[inline(always)]
    fn new(ph: f64, h: f64) -> Self {
        Self {
            mid: 0.5 * (ph + h),
            dh: h - ph,
            zero_crossing: zero_crossing(ph, h),
        }
    }

    /// The window's trapezoidal `∮ H dB` term, in the operand order of
    /// [`loop_area`].
    #[inline(always)]
    fn area_term(&self, db: f64) -> f64 {
        self.mid * db
    }

    /// Negative differential permeability over the window, as counted by
    /// [`BhCurve::negative_slope_samples`].
    #[inline(always)]
    fn falls(&self, db: f64) -> bool {
        self.dh != 0.0 && db / self.dh < 0.0
    }
}

/// Whether the abscissa crosses zero over a `(px, x)` window; a window
/// that starts and ends at zero does not count.
#[inline(always)]
fn crosses_zero(px: f64, x: f64) -> bool {
    !(px == 0.0 && x == 0.0) && ((px <= 0.0 && x > 0.0) || (px >= 0.0 && x < 0.0))
}

/// Where the abscissa crosses zero over a `(px, x)` window, as the fraction
/// `t` of the window at which the ordinate is interpolated (the midpoint
/// when the window is within `f64::EPSILON` of flat), or `None` when it
/// does not cross ([`crosses_zero`]).
#[inline(always)]
fn zero_crossing(px: f64, x: f64) -> Option<f64> {
    crosses_zero(px, x).then(|| {
        if (x - px).abs() > f64::EPSILON {
            -px / (x - px)
        } else {
            0.5
        }
    })
}

/// Interpolates the ordinate linearly to a zero crossing at fraction `t`
/// of its `(py, y)` window; its |value| joins the running mean unless it
/// is within `f64::EPSILON` of zero (which screens out degenerate
/// crossings, e.g. the origin).
#[inline(always)]
fn add_crossing(t: f64, (py, y): (f64, f64), sum: &mut f64, count: &mut usize) {
    let value = py + t * (y - py);
    if value.abs() > f64::EPSILON {
        *sum += value.abs();
        *count += 1;
    }
}

/// Enclosed loop area `∮ H dB` in J/m³, computed with the trapezoidal rule
/// over the whole trace.  For a trace containing exactly one closed loop
/// this is the hysteresis loss per cycle per unit volume; for several cycles
/// it is the total over all of them.
pub fn loop_area(curve: &BhCurve) -> f64 {
    let pts = curve.points();
    let mut area = 0.0;
    for w in pts.windows(2) {
        let h_mid = 0.5 * (w[0].h.value() + w[1].h.value());
        let db = w[1].b.as_tesla() - w[0].b.as_tesla();
        area += h_mid * db;
    }
    area.abs()
}

/// How well the final sample of a periodically excited trace returns to the
/// state it had one period earlier, measured as |ΔB| between the last sample
/// and the sample `period_samples` before it.  A well-behaved hysteresis
/// model settles onto a closed loop, so this should be small compared to
/// `B_max`.
///
/// # Errors
///
/// Returns [`MagneticsError::InsufficientSamples`] when the trace is shorter
/// than one period plus one sample.
pub fn loop_closure_error(curve: &BhCurve, period_samples: usize) -> Result<f64, MagneticsError> {
    if curve.len() <= period_samples {
        return Err(MagneticsError::InsufficientSamples {
            required: period_samples + 1,
            available: curve.len(),
        });
    }
    let last = curve.points()[curve.len() - 1];
    let previous = curve.points()[curve.len() - 1 - period_samples];
    Ok((last.b.as_tesla() - previous.b.as_tesla()).abs())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bh::BhCurve;
    use proptest::prelude::*;

    /// Builds a synthetic rectangular-ish hysteresis loop:
    /// B = Bs * tanh((H ± Hc)/w), ascending branch shifted by -Hc,
    /// descending branch by +Hc.
    fn synthetic_loop(h_peak: f64, h_c: f64, b_s: f64, n: usize) -> BhCurve {
        let mut curve = BhCurve::new();
        let w = h_c / 2.0;
        // ascending branch: H from -h_peak to +h_peak
        for i in 0..=n {
            let h = -h_peak + 2.0 * h_peak * i as f64 / n as f64;
            let b = b_s * ((h - h_c) / w).tanh();
            curve.push_raw(h, b, 0.0);
        }
        // descending branch: H from +h_peak to -h_peak
        for i in 0..=n {
            let h = h_peak - 2.0 * h_peak * i as f64 / n as f64;
            let b = b_s * ((h + h_c) / w).tanh();
            curve.push_raw(h, b, 0.0);
        }
        curve
    }

    /// Builds a synthetic lens-shaped loop with closed tips at ±h_peak:
    /// both branches share the linear backbone `k·H` and are separated by
    /// the parabolic lens `d(H) = d0·(1 − (H/h_peak)²)`, giving analytic
    /// remanence (`d0`), coercivity (positive root of `k·H = d(H)`) and
    /// enclosed area (`(8/3)·d0·h_peak`).
    fn lens_loop(h_peak: f64, k: f64, d0: f64, n: usize) -> BhCurve {
        let mut curve = BhCurve::new();
        let lens = |h: f64| d0 * (1.0 - (h / h_peak).powi(2));
        // ascending branch (lower lip): H from -h_peak to +h_peak
        for i in 0..=n {
            let h = -h_peak + 2.0 * h_peak * i as f64 / n as f64;
            curve.push_raw(h, k * h - lens(h), 0.0);
        }
        // descending branch (upper lip): H from +h_peak back to -h_peak
        for i in 0..=n {
            let h = h_peak - 2.0 * h_peak * i as f64 / n as f64;
            curve.push_raw(h, k * h + lens(h), 0.0);
        }
        curve
    }

    const LENS_H_PEAK: f64 = 10_000.0;
    const LENS_K: f64 = 1.8e-4; // > 2·d0/h_peak, so slopes stay positive
    const LENS_D0: f64 = 0.5;

    #[test]
    fn lens_loop_remanence_is_the_lens_half_width() {
        let curve = lens_loop(LENS_H_PEAK, LENS_K, LENS_D0, 2000);
        let br = loop_metrics(&curve).unwrap().remanence;
        // At H = 0 both branches sit at ±d0 exactly.
        assert!(
            (br.as_tesla() - LENS_D0).abs() < 1e-3,
            "Br = {} T, expected {LENS_D0} T",
            br.as_tesla()
        );
    }

    #[test]
    fn lens_loop_coercivity_matches_analytic_root() {
        let curve = lens_loop(LENS_H_PEAK, LENS_K, LENS_D0, 2000);
        let hc = loop_metrics(&curve).unwrap().coercivity;
        // B = 0 on the ascending branch at k·H = d0(1 − (H/hp)²), the
        // positive root of (d0/hp²)·H² + k·H − d0 = 0.
        let a = LENS_D0 / (LENS_H_PEAK * LENS_H_PEAK);
        let expected = (-LENS_K + (LENS_K * LENS_K + 4.0 * a * LENS_D0).sqrt()) / (2.0 * a);
        assert!(
            (hc.value() - expected).abs() < 0.01 * expected,
            "Hc = {} A/m, expected {expected} A/m",
            hc.value()
        );
    }

    #[test]
    fn lens_loop_area_matches_closed_form() {
        let curve = lens_loop(LENS_H_PEAK, LENS_K, LENS_D0, 2000);
        // ∮ H dB over the lens: ∫ 2·d(H) dH = (8/3)·d0·h_peak.
        let expected = 8.0 / 3.0 * LENS_D0 * LENS_H_PEAK;
        let area = loop_area(&curve);
        assert!(
            (area - expected).abs() < 0.01 * expected,
            "area = {area} J/m³, expected {expected} J/m³"
        );
    }

    #[test]
    fn lens_loop_full_metrics_are_consistent() {
        let curve = lens_loop(LENS_H_PEAK, LENS_K, LENS_D0, 2000);
        let m = loop_metrics(&curve).unwrap();
        assert!((m.h_max.value() - LENS_H_PEAK).abs() < 1e-9);
        // Peak B at +h_peak where the lens vanishes: k·h_peak.
        assert!((m.b_max.as_tesla() - LENS_K * LENS_H_PEAK).abs() < 1e-9);
        assert_eq!(m.negative_slope_samples, 0);
    }

    #[test]
    fn coercivity_of_synthetic_loop() {
        let curve = synthetic_loop(10_000.0, 1000.0, 1.8, 2000);
        let hc = loop_metrics(&curve).unwrap().coercivity;
        assert!(
            (hc.value() - 1000.0).abs() < 30.0,
            "Hc = {} A/m",
            hc.value()
        );
    }

    #[test]
    fn remanence_of_synthetic_loop() {
        let curve = synthetic_loop(10_000.0, 1000.0, 1.8, 2000);
        let br = loop_metrics(&curve).unwrap().remanence;
        // B at H=0 on either branch: Bs * tanh(Hc/w) = Bs * tanh(2) ~ 0.964 Bs
        let expected = 1.8 * (2.0_f64).tanh();
        assert!(
            (br.as_tesla() - expected).abs() < 0.02,
            "Br = {}",
            br.as_tesla()
        );
    }

    #[test]
    fn loop_area_positive_and_scales_with_coercivity() {
        let narrow = synthetic_loop(10_000.0, 500.0, 1.8, 2000);
        let wide = synthetic_loop(10_000.0, 2000.0, 1.8, 2000);
        let a_narrow = loop_area(&narrow);
        let a_wide = loop_area(&wide);
        assert!(a_narrow > 0.0);
        assert!(a_wide > a_narrow);
    }

    #[test]
    fn metrics_bundle() {
        let curve = synthetic_loop(10_000.0, 1000.0, 1.8, 1000);
        let m = loop_metrics(&curve).unwrap();
        assert!(m.b_max.as_tesla() <= 1.8 + 1e-9);
        assert!((m.h_max.value() - 10_000.0).abs() < 1e-6);
        assert!(m.coercivity.value() > 500.0);
        assert!(m.remanence.as_tesla() > 1.0);
        assert!(m.loop_area > 0.0);
        assert_eq!(m.negative_slope_samples, 0);
    }

    #[test]
    fn named_values_mirror_the_struct() {
        let curve = synthetic_loop(10_000.0, 1000.0, 1.8, 1000);
        let m = loop_metrics(&curve).unwrap();
        let named = m.named_values();
        assert_eq!(named[0], ("b_max_t", m.b_max.as_tesla()));
        assert_eq!(named[1], ("h_max_a_per_m", m.h_max.value()));
        assert_eq!(named[2], ("coercivity_a_per_m", m.coercivity.value()));
        assert_eq!(named[3], ("remanence_t", m.remanence.as_tesla()));
        assert_eq!(named[4], ("loop_area_j_per_m3", m.loop_area));
        assert_eq!(
            named[5],
            ("negative_slope_samples", m.negative_slope_samples as f64)
        );
        // Keys are unique (an accidental duplicate would corrupt reports).
        for (i, (key, _)) in named.iter().enumerate() {
            assert!(named.iter().skip(i + 1).all(|(other, _)| other != key));
        }
    }

    #[test]
    fn metrics_require_enough_samples() {
        let mut curve = BhCurve::new();
        curve.push_raw(0.0, 0.0, 0.0);
        assert!(matches!(
            loop_metrics(&curve),
            Err(MagneticsError::InsufficientSamples { .. })
        ));
    }

    #[test]
    fn coercivity_missing_for_initial_curve() {
        // Initial magnetisation curve only: B stays >= 0, no zero crossing
        // away from the origin.
        let mut curve = BhCurve::new();
        for i in 0..100 {
            let h = i as f64 * 10.0;
            curve.push_raw(h, (h / 5000.0).tanh(), 0.0);
        }
        assert_eq!(
            loop_metrics(&curve),
            Err(MagneticsError::MissingCrossing {
                what: "B = 0 away from the origin (coercivity)",
            })
        );
    }

    #[test]
    fn loop_closure_error_small_for_closed_loop() {
        let curve = synthetic_loop(10_000.0, 1000.0, 1.8, 500);
        // One full period is the entire trace minus 1; compare last sample
        // to itself shifted by 0 -> use an artificial repeat instead.
        let mut repeated = curve.clone();
        repeated.extend(curve.points().iter().copied());
        let err = loop_closure_error(&repeated, curve.len()).unwrap();
        assert!(err < 1e-12);
    }

    #[test]
    fn loop_closure_requires_enough_samples() {
        let curve = synthetic_loop(10.0, 1.0, 1.0, 10);
        assert!(loop_closure_error(&curve, 10_000).is_err());
    }

    #[test]
    fn negative_slope_samples_counted_in_metrics() {
        let mut curve = synthetic_loop(10_000.0, 1000.0, 1.8, 200);
        // Inject an artificial glitch.
        curve.push_raw(-10_001.0, 5.0, 0.0);
        curve.push_raw(-10_002.0, -5.0, 0.0);
        let m = loop_metrics(&curve).unwrap();
        assert!(m.negative_slope_samples >= 1);
    }

    /// The reference the fold is held to: one plain pass over the stored
    /// curve per metric, reporting the first failure in metric order.
    fn six_pass_metrics(curve: &BhCurve) -> Result<LoopMetrics, MagneticsError> {
        if curve.len() < 8 {
            return Err(MagneticsError::InsufficientSamples {
                required: 8,
                available: curve.len(),
            });
        }
        let b_max = curve.peak_flux_density()?;
        let h_max = curve.peak_field()?;
        let coercivity =
            mean_abs_level_crossings(curve.points().iter().map(|p| (p.b.as_tesla(), p.h.value())))
                .ok_or(MagneticsError::MissingCrossing {
                    what: "B = 0 away from the origin (coercivity)",
                })?;
        let remanence =
            mean_abs_level_crossings(curve.points().iter().map(|p| (p.h.value(), p.b.as_tesla())))
                .ok_or(MagneticsError::MissingCrossing {
                    what: "H = 0 away from the origin (remanence)",
                })?;
        Ok(LoopMetrics {
            b_max,
            h_max,
            coercivity: FieldStrength::new(coercivity),
            remanence: FluxDensity::new(remanence),
            loop_area: loop_area(curve),
            negative_slope_samples: curve.negative_slope_samples(),
        })
    }

    /// The mean |ordinate| where the abscissa crosses zero, over a whole
    /// `(abscissa, ordinate)` sequence: linear interpolation between the
    /// bracketing samples, crossings within `f64::EPSILON` of zero
    /// dropped, `None` when none is left.
    fn mean_abs_level_crossings(samples: impl Iterator<Item = (f64, f64)>) -> Option<f64> {
        let mut sum = 0.0_f64;
        let mut count = 0_usize;
        let mut prev: Option<(f64, f64)> = None;
        for (x, y) in samples {
            if let Some((px, py)) = prev {
                if !(px == 0.0 && x == 0.0) && ((px <= 0.0 && x > 0.0) || (px >= 0.0 && x < 0.0)) {
                    let t = if (x - px).abs() > f64::EPSILON {
                        -px / (x - px)
                    } else {
                        0.5
                    };
                    let value = py + t * (y - py);
                    if value.abs() > f64::EPSILON {
                        sum += value.abs();
                        count += 1;
                    }
                }
            }
            prev = Some((x, y));
        }
        (count > 0).then(|| sum / count as f64)
    }

    /// Streams a stored curve through the fold one sample at a time, and
    /// checks the loss inputs it carries against their standalone passes.
    fn incremental(curve: &BhCurve) -> Result<LoopMetrics, MagneticsError> {
        let mut acc = IncrementalLoopMetrics::new();
        for p in curve.iter() {
            acc.push_point(p);
        }
        assert_eq!(acc.len(), curve.len());
        assert_eq!(acc.loop_area().to_bits(), loop_area(curve).to_bits());
        if let Ok(peak) = curve.peak_flux_density() {
            assert_eq!(
                acc.peak_flux_density().as_tesla().to_bits(),
                peak.as_tesla().to_bits()
            );
        }
        acc.finish()
    }

    /// Asserts the streamed result reproduces the six-pass result
    /// bit-for-bit (including which error is reported).
    fn assert_bit_identical(
        stored: &Result<LoopMetrics, MagneticsError>,
        streamed: &Result<LoopMetrics, MagneticsError>,
    ) {
        match (stored, streamed) {
            (Ok(a), Ok(b)) => {
                assert_eq!(a.b_max.as_tesla().to_bits(), b.b_max.as_tesla().to_bits());
                assert_eq!(a.h_max.value().to_bits(), b.h_max.value().to_bits());
                assert_eq!(
                    a.coercivity.value().to_bits(),
                    b.coercivity.value().to_bits()
                );
                assert_eq!(
                    a.remanence.as_tesla().to_bits(),
                    b.remanence.as_tesla().to_bits()
                );
                assert_eq!(a.loop_area.to_bits(), b.loop_area.to_bits());
                assert_eq!(a.negative_slope_samples, b.negative_slope_samples);
            }
            (Err(a), Err(b)) => assert_eq!(a, b),
            (stored, streamed) => {
                panic!("stored {stored:?} and streamed {streamed:?} disagree")
            }
        }
    }

    #[test]
    fn incremental_matches_stored_on_synthetic_loop() {
        for n in [8, 37, 200, 2000] {
            let curve = synthetic_loop(10_000.0, 1000.0, 1.8, n);
            assert_bit_identical(&six_pass_metrics(&curve), &incremental(&curve));
        }
    }

    #[test]
    fn incremental_matches_stored_on_lens_loop() {
        let curve = lens_loop(LENS_H_PEAK, LENS_K, LENS_D0, 2000);
        assert_bit_identical(&six_pass_metrics(&curve), &incremental(&curve));
    }

    #[test]
    fn incremental_matches_stored_on_glitched_loop() {
        let mut curve = synthetic_loop(10_000.0, 1000.0, 1.8, 200);
        curve.push_raw(-10_001.0, 5.0, 0.0);
        curve.push_raw(-10_002.0, -5.0, 0.0);
        assert_bit_identical(&six_pass_metrics(&curve), &incremental(&curve));
    }

    #[test]
    fn incremental_matches_stored_error_cases() {
        // Too short.
        let mut short = BhCurve::new();
        short.push_raw(0.0, 0.0, 0.0);
        assert_bit_identical(&six_pass_metrics(&short), &incremental(&short));
        // Initial magnetisation curve: no B = 0 crossing away from the
        // origin -> coercivity is the first reported failure.
        let mut initial = BhCurve::new();
        for i in 0..100 {
            let h = i as f64 * 10.0;
            initial.push_raw(h, (h / 5000.0).tanh(), 0.0);
        }
        assert_bit_identical(&six_pass_metrics(&initial), &incremental(&initial));
        // B crosses zero but H never does: remanence is the failure.
        let mut no_h_crossing = BhCurve::new();
        for i in 0..20 {
            no_h_crossing.push_raw(10.0 + i as f64, i as f64 - 10.5, 0.0);
        }
        assert_bit_identical(
            &six_pass_metrics(&no_h_crossing),
            &incremental(&no_h_crossing),
        );
    }

    /// What a caller keeps of a fold, as bits: its length, its loop metrics
    /// (or error), its loop area and peak |B|, and its core loss (or error)
    /// on the demo core.
    type FoldBits = (
        usize,
        Result<[u64; 6], MagneticsError>,
        u64,
        u64,
        Result<[u64; 4], MagneticsError>,
    );

    fn fold_bits(fold: &IncrementalLoopMetrics) -> FoldBits {
        use crate::geometry::CoreGeometry;
        use crate::losses::{core_loss_of, LaminationSpec};
        let lamination = Some(LaminationSpec::silicon_steel_0p35mm());
        let loss = core_loss_of(fold, &CoreGeometry::demo(), 50.0, lamination);
        (
            fold.len(),
            fold.finish()
                .map(|metrics| metrics.named_values().map(|(_, value)| value.to_bits())),
            fold.loop_area().to_bits(),
            fold.peak_flux_density().as_tesla().to_bits(),
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

    /// Folds the shared `h` trace's first `run` samples in lockstep, lane
    /// `i` reading `b(sample, i)`, and takes lane `i`'s fold after
    /// `stops[i]` samples (or at the end of the run), the way the lockstep
    /// kernel takes a lane's fold when the lane fails.  A lane reads NaN
    /// once it has stopped, like a failed lane's garbage.  Asserts every
    /// lane's fold equals a scalar fold of its own prefix.
    fn assert_lanes_match_scalar_folds(
        h: &[f64],
        b: impl Fn(usize, usize) -> f64,
        lanes: usize,
        stops: &[usize],
        run: usize,
    ) {
        let mut folds = LaneLoopMetrics::new();
        folds.reset(lanes);
        let mut taken: Vec<Option<IncrementalLoopMetrics>> = vec![None; lanes];
        let mut column = vec![0.0; lanes];
        for (sample, &field) in h[..run].iter().enumerate() {
            for lane in 0..lanes {
                if stops[lane] == sample {
                    taken[lane] = Some(folds.lane(lane));
                }
                column[lane] = if taken[lane].is_some() {
                    f64::NAN
                } else {
                    b(sample, lane)
                };
            }
            folds.push(field, &column);
        }
        for (lane, taken) in taken.into_iter().enumerate() {
            let mut fold = taken.unwrap_or_else(|| folds.lane(lane));
            let mut scalar = IncrementalLoopMetrics::new();
            for (sample, &field) in h[..stops[lane].min(run)].iter().enumerate() {
                scalar.push(field, b(sample, lane));
            }
            assert_eq!(
                fold_bits(&fold),
                fold_bits(&scalar),
                "lane {lane} of {lanes}"
            );
            // One more sample reads the previous point each fold kept.
            fold.push(-3.0, 0.75);
            scalar.push(-3.0, 0.75);
            assert_eq!(
                fold_bits(&fold),
                fold_bits(&scalar),
                "lane {lane} of {lanes}, pushed on"
            );
        }
    }

    /// Values that reach every branch of the window rules: exact and
    /// signed zeros, the smallest subnormals (so a difference is
    /// subnormal, and `db / dh` underflows to zero), values within
    /// `f64::EPSILON` of zero, and ordinary magnitudes.
    const EDGE_VALUES: [f64; 14] = [
        0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 1e-17, -1e-17, 1.0, -1.0, 2.5, -2.5, 1e4, -1e4,
    ];

    /// An edge value, or `fraction · scale` for an index past them.
    fn pick((index, fraction): (usize, f64), scale: f64) -> f64 {
        EDGE_VALUES.get(index).copied().unwrap_or(fraction * scale)
    }

    #[test]
    fn lane_fold_matches_scalar_folds_on_edge_windows() {
        // H: a flat start (dh = 0), a crossing from -0.0 to a window
        // narrower than `f64::EPSILON` (t = 0.5), zero to zero, then a
        // loop.  Lane 0's B steps from 0 to the smallest negative
        // subnormal while H rises by 1e4, so `db / dh` underflows to -0.0
        // and the window does not count as a negative slope.
        let h = [
            0.0, 0.0, -0.0, 1e-17, -1e-17, 0.0, 0.0, 1e4, 5e3, -5e3, -1e4, 0.0, 1e4, 1e4,
        ];
        let b = |sample: usize, lane: usize| match lane {
            0 => [
                0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, -5e-324, 1.5, -0.5, -1.5, -1.0, 1.5, 1.5,
            ][sample],
            1 => [
                0.0, -0.0, 1e-17, -1e-17, 2.0, -2.0, 0.0, 1.5, 1.0, -1.0, -1.5, -0.5, 1.5, 0.0,
            ][sample],
            lane => (lane as f64 - 2.0) * h[sample] * 1e-4 - 0.25 * (sample % 3) as f64,
        };
        assert_eq!((-5e-324_f64 - 0.0) / 1e4, 0.0);
        let lanes = 5;
        for stops in [[99; 5], [0, 1, 7, 8, 13], [13, 8, 7, 1, 0]] {
            for run in [0, 1, 7, 8, h.len()] {
                assert_lanes_match_scalar_folds(&h, b, lanes, &stops, run);
            }
        }
    }

    proptest! {
        /// Lockstep folds of random finite traces on 1–40 lanes, each
        /// lane taken at its own stop, over a run that may stop early,
        /// equal scalar folds of each lane's prefix bit for bit.  The
        /// traces mix edge values (zeros, signed zeros, subnormals, values
        /// within `f64::EPSILON` of zero) with ordinary ones, and repeat H.
        #[test]
        fn lane_fold_matches_scalar_folds_on_random_traces(
            lanes in 1_usize..41,
            fields in proptest::collection::vec((0_usize..24, -1.0_f64..1.0, 0_usize..4), 0..48),
            flux in proptest::collection::vec((0_usize..24, -1.0_f64..1.0), 40 * 48),
            stops in proptest::collection::vec(0_usize..56, 40),
            cut in 0_usize..56,
        ) {
            let mut h: Vec<f64> = Vec::with_capacity(fields.len());
            for &(index, fraction, repeat) in &fields {
                let field = match h.last() {
                    // A repeated H: a window with dh = 0.
                    Some(&last) if repeat == 0 => last,
                    _ => pick((index, fraction), 1e4),
                };
                h.push(field);
            }
            let b = |sample: usize, lane: usize| pick(flux[sample * 40 + lane], 2.5);
            assert_lanes_match_scalar_folds(&h, b, lanes, &stops, cut.min(h.len()));
        }

        /// Random traces — including short, degenerate and non-loop shapes —
        /// reduce to bit-identical metrics (or the identical error) whether
        /// folded or computed in six passes.
        #[test]
        fn incremental_matches_stored_on_random_traces(
            raw in proptest::collection::vec((-1.0e4_f64..1.0e4, -2.5_f64..2.5), 0..64),
        ) {
            let mut curve = BhCurve::new();
            for (h, b) in &raw {
                curve.push_raw(*h, *b, 0.0);
            }
            assert_bit_identical(&six_pass_metrics(&curve), &incremental(&curve));
        }

        /// Random closed loops exercise the success path with crossings on
        /// both axes.
        #[test]
        fn incremental_matches_stored_on_random_loops(
            h_peak in 1.0e3_f64..2.0e4,
            h_c_frac in 0.05_f64..0.4,
            b_s in 0.2_f64..2.5,
            n in 8_usize..300,
        ) {
            let curve = synthetic_loop(h_peak, h_c_frac * h_peak, b_s, n);
            assert_bit_identical(&six_pass_metrics(&curve), &incremental(&curve));
        }
    }
}
