//! Field schedules for timeless (DC-sweep) simulations.
//!
//! The paper's central idea is that the magnetisation slope is integrated
//! against the *field* `H`, not against time.  A [`FieldSchedule`] captures
//! exactly the information such a simulation needs: the ordered sequence of
//! field values the excitation passes through, with no timestamps at all.
//!
//! A schedule is described by its reversal points (breakpoints) and a step
//! size; iterating it walks linearly from each breakpoint to the next in
//! increments of the step.  Ready-made constructors build the excitations
//! used in the paper's evaluation:
//!
//! * [`FieldSchedule::major_loop`] — the plain triangular DC sweep;
//! * [`FieldSchedule::nested_minor_loops`] — a major sweep followed by
//!   progressively smaller non-biased (origin-centred) loops, the Fig. 1
//!   stimulus;
//! * [`FieldSchedule::biased_minor_loop`] — a small loop around an arbitrary
//!   bias point ("various minor loop sizes and in different positions");
//! * [`FieldSchedule::demagnetisation`] — decaying loop amplitudes.
//!
//! Every constructor bounds the schedule at [`MAX_SAMPLES`], so no input
//! can make a schedule exhaust memory or time.

use crate::error::WaveformError;

/// The most samples a schedule may yield: 2^24 (16,777,216).
///
/// Every constructor checks it, counting in `f64` so no step/span ratio or
/// cycle count can overflow the count, and before any buffer is sized from
/// the inputs, so an oversized schedule (a vanishing step, a huge cycle
/// count, a decay that never reaches its stop amplitude) is an
/// [`WaveformError::InvalidParameter`] instead of an allocation failure or
/// a hang.  A constant rather than a free-memory probe, so the same input
/// is rejected on every machine.  For scale: the Fig. 1 stimulus at a
/// 1 A/m step has 117,501 samples.
pub const MAX_SAMPLES: usize = 1 << 24;

/// [`MAX_SAMPLES`] as the `f64` the counts are kept in (exact: a power of
/// two).
const SAMPLE_LIMIT: f64 = MAX_SAMPLES as f64;

/// The error for a schedule over [`MAX_SAMPLES`], naming the parameter
/// that pushed it over.
fn too_many_samples(name: &'static str, value: f64) -> WaveformError {
    WaveformError::InvalidParameter {
        name,
        value,
        requirement: "at most 2^24 samples per schedule (a coarser step or fewer cycles)",
    }
}

fn check_step(step: f64) -> Result<(), WaveformError> {
    if !step.is_finite() || step <= 0.0 {
        return Err(WaveformError::InvalidParameter {
            name: "step",
            value: step,
            requirement: "finite and > 0",
        });
    }
    Ok(())
}

/// Checks a `cycles`-fold loop before its breakpoint vector is sized:
/// `head` samples up to the loop, then `per_cycle` samples per cycle.
/// A cycle counts as at least its two reversals, so the breakpoint vector
/// stays bounded even when the step dwarfs the span.  One cycle over the
/// ceiling blames the step, more the cycle count.
fn check_cycles(head: f64, per_cycle: f64, cycles: usize, step: f64) -> Result<(), WaveformError> {
    let per_cycle = per_cycle.max(2.0);
    if head + per_cycle > SAMPLE_LIMIT {
        return Err(too_many_samples("step", step));
    }
    if head + per_cycle * cycles as f64 > SAMPLE_LIMIT {
        return Err(too_many_samples("cycles", cycles as f64));
    }
    Ok(())
}

/// An ordered, time-free sequence of applied-field values.
#[derive(Debug, Clone, PartialEq)]
pub struct FieldSchedule {
    start: f64,
    breakpoints: Vec<f64>,
    step: f64,
}

impl FieldSchedule {
    /// Creates a schedule from a starting field, the successive reversal
    /// targets and the field step used to walk between them (A/m).
    ///
    /// # Errors
    ///
    /// Returns [`WaveformError::InvalidParameter`] when the step is not
    /// finite and strictly positive, or any breakpoint is not finite, or no
    /// breakpoints are given, or the schedule would have more than
    /// [`MAX_SAMPLES`] samples.
    pub fn new(start: f64, breakpoints: Vec<f64>, step: f64) -> Result<Self, WaveformError> {
        check_step(step)?;
        if !start.is_finite() {
            return Err(WaveformError::InvalidParameter {
                name: "start",
                value: start,
                requirement: "finite",
            });
        }
        if breakpoints.is_empty() {
            return Err(WaveformError::InvalidParameter {
                name: "breakpoints",
                value: 0.0,
                requirement: "at least one reversal target",
            });
        }
        if let Some(&bad) = breakpoints.iter().find(|b| !b.is_finite()) {
            return Err(WaveformError::InvalidParameter {
                name: "breakpoints",
                value: bad,
                requirement: "all finite",
            });
        }
        let mut samples = 1.0;
        let mut from = start;
        for &to in &breakpoints {
            samples += segment_span(from, to, step);
            from = to;
        }
        if samples > SAMPLE_LIMIT {
            return Err(too_many_samples("step", step));
        }
        Ok(Self {
            start,
            breakpoints,
            step,
        })
    }

    /// A plain triangular DC sweep: starting from zero field, `cycles` full
    /// excursions `0 → +H_peak → −H_peak → +H_peak → …`, ending back at
    /// `+H_peak` of the last cycle.
    ///
    /// # Errors
    ///
    /// Returns [`WaveformError::InvalidParameter`] when `h_peak` is not
    /// finite and positive, `step` is invalid, `cycles` is zero, or the
    /// loop would have more than [`MAX_SAMPLES`] samples.
    pub fn major_loop(h_peak: f64, step: f64, cycles: usize) -> Result<Self, WaveformError> {
        if !h_peak.is_finite() || h_peak <= 0.0 {
            return Err(WaveformError::InvalidParameter {
                name: "h_peak",
                value: h_peak,
                requirement: "finite and > 0",
            });
        }
        if cycles == 0 {
            return Err(WaveformError::InvalidParameter {
                name: "cycles",
                value: 0.0,
                requirement: ">= 1",
            });
        }
        check_step(step)?;
        check_cycles(
            1.0 + segment_span(0.0, h_peak, step),
            2.0 * segment_span(h_peak, -h_peak, step),
            cycles,
            step,
        )?;
        let mut breakpoints = Vec::with_capacity(cycles * 2 + 1);
        breakpoints.push(h_peak);
        for _ in 0..cycles {
            breakpoints.push(-h_peak);
            breakpoints.push(h_peak);
        }
        Self::new(0.0, breakpoints, step)
    }

    /// The Fig. 1 stimulus: a full major sweep followed by non-biased
    /// (origin-centred) minor loops at each of the given amplitudes.
    ///
    /// # Errors
    ///
    /// Returns [`WaveformError::InvalidParameter`] when `h_peak` or any
    /// minor amplitude is not finite and positive, an amplitude exceeds
    /// `h_peak`, or `step` is invalid.
    pub fn nested_minor_loops(
        h_peak: f64,
        minor_amplitudes: &[f64],
        step: f64,
    ) -> Result<Self, WaveformError> {
        if !h_peak.is_finite() || h_peak <= 0.0 {
            return Err(WaveformError::InvalidParameter {
                name: "h_peak",
                value: h_peak,
                requirement: "finite and > 0",
            });
        }
        for &a in minor_amplitudes {
            if !a.is_finite() || a <= 0.0 || a > h_peak {
                return Err(WaveformError::InvalidParameter {
                    name: "minor_amplitudes",
                    value: a,
                    requirement: "finite, > 0 and <= h_peak",
                });
            }
        }
        // Major loop first (stabilises the trajectory on the outer loop),
        // then one full non-biased cycle per minor amplitude.
        let mut breakpoints = vec![h_peak, -h_peak, h_peak];
        for &a in minor_amplitudes {
            breakpoints.push(-a);
            breakpoints.push(a);
        }
        Self::new(0.0, breakpoints, step)
    }

    /// A minor loop of amplitude `amplitude` centred on `bias`, repeated
    /// `cycles` times, approached from zero field.
    ///
    /// # Errors
    ///
    /// Returns [`WaveformError::InvalidParameter`] when the amplitude is not
    /// finite and positive, the bias is not finite, `cycles` is zero,
    /// `step` is invalid, or the loop would have more than [`MAX_SAMPLES`]
    /// samples.
    pub fn biased_minor_loop(
        bias: f64,
        amplitude: f64,
        cycles: usize,
        step: f64,
    ) -> Result<Self, WaveformError> {
        if !bias.is_finite() {
            return Err(WaveformError::InvalidParameter {
                name: "bias",
                value: bias,
                requirement: "finite",
            });
        }
        if !amplitude.is_finite() || amplitude <= 0.0 {
            return Err(WaveformError::InvalidParameter {
                name: "amplitude",
                value: amplitude,
                requirement: "finite and > 0",
            });
        }
        if cycles == 0 {
            return Err(WaveformError::InvalidParameter {
                name: "cycles",
                value: 0.0,
                requirement: ">= 1",
            });
        }
        check_step(step)?;
        let (high, low) = (bias + amplitude, bias - amplitude);
        check_cycles(
            1.0 + segment_span(0.0, high, step),
            segment_span(high, low, step) + segment_span(low, high, step),
            cycles,
            step,
        )?;
        let mut breakpoints = Vec::with_capacity(cycles * 2 + 1);
        breakpoints.push(high);
        for _ in 0..cycles {
            breakpoints.push(low);
            breakpoints.push(high);
        }
        Self::new(0.0, breakpoints, step)
    }

    /// A demagnetisation schedule: loops whose amplitude decays geometrically
    /// from `h_start` by `decay` per half-cycle until it falls below
    /// `h_stop`.
    ///
    /// # Errors
    ///
    /// Returns [`WaveformError::InvalidParameter`] when the amplitudes are
    /// not positive and ordered (`h_stop < h_start`), the decay factor is not
    /// in `(0, 1)`, `step` is invalid, or the schedule would have more than
    /// [`MAX_SAMPLES`] samples — checked as the loop adds each reversal, so
    /// a decay that takes too many cycles to reach `h_stop` fails fast.
    pub fn demagnetisation(
        h_start: f64,
        h_stop: f64,
        decay: f64,
        step: f64,
    ) -> Result<Self, WaveformError> {
        if !h_start.is_finite() || h_start <= 0.0 {
            return Err(WaveformError::InvalidParameter {
                name: "h_start",
                value: h_start,
                requirement: "finite and > 0",
            });
        }
        if !h_stop.is_finite() || h_stop <= 0.0 || h_stop >= h_start {
            return Err(WaveformError::InvalidParameter {
                name: "h_stop",
                value: h_stop,
                requirement: "finite, > 0 and < h_start",
            });
        }
        if !(0.0..1.0).contains(&decay) || decay == 0.0 {
            return Err(WaveformError::InvalidParameter {
                name: "decay",
                value: decay,
                requirement: "in (0, 1)",
            });
        }
        check_step(step)?;
        let mut breakpoints = Vec::new();
        let mut amplitude = h_start;
        let mut sign = 1.0;
        let (mut samples, mut from) = (1.0, 0.0);
        while amplitude >= h_stop {
            let to = sign * amplitude;
            // At least one per reversal, so the loop ends even when the
            // step dwarfs every amplitude.
            samples += segment_span(from, to, step).max(1.0);
            if samples > SAMPLE_LIMIT {
                return Err(if breakpoints.len() < 2 {
                    too_many_samples("step", step)
                } else {
                    too_many_samples("decay", decay)
                });
            }
            breakpoints.push(to);
            from = to;
            sign = -sign;
            amplitude *= decay;
        }
        breakpoints.push(0.0);
        Self::new(0.0, breakpoints, step)
    }

    /// The starting field value.
    pub fn start(&self) -> f64 {
        self.start
    }

    /// The reversal targets.
    pub fn breakpoints(&self) -> &[f64] {
        &self.breakpoints
    }

    /// The field step between successive samples.
    pub fn step(&self) -> f64 {
        self.step
    }

    /// Total number of samples the iterator will yield (including the
    /// starting sample).
    pub fn len(&self) -> usize {
        let mut n = 1usize;
        let mut from = self.start;
        for &to in &self.breakpoints {
            n += segment_steps(from, to, self.step);
            from = to;
        }
        n
    }

    /// `true` when the schedule yields only the starting sample.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Iterator over the field samples.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            schedule: self,
            segment: 0,
            segment_from: self.start,
            steps_in_segment: self
                .breakpoints
                .first()
                .map_or(0, |&to| segment_steps(self.start, to, self.step)),
            step_done: 0,
            emitted_start: false,
            remaining: self.len(),
        }
    }

    /// Collects the schedule into a vector of field samples.
    pub fn to_samples(&self) -> Vec<f64> {
        self.iter().collect()
    }

    /// Peak absolute field value the schedule reaches.
    pub fn peak(&self) -> f64 {
        self.breakpoints
            .iter()
            .map(|b| b.abs())
            .fold(self.start.abs(), f64::max)
    }
}

/// Samples one segment contributes, as `f64` so that a huge span/step
/// ratio cannot overflow (the constructors compare it with
/// [`MAX_SAMPLES`]).
fn segment_span(from: f64, to: f64, step: f64) -> f64 {
    ((to - from).abs() / step).ceil()
}

fn segment_steps(from: f64, to: f64, step: f64) -> usize {
    segment_span(from, to, step) as usize
}

/// Iterator over the field samples of a [`FieldSchedule`].
///
/// Each segment emits exactly `segment_steps(from, to, step)` samples —
/// the same count [`FieldSchedule::len`] sums — computed as
/// `from + i · step` with the final sample clamped to the breakpoint, so
/// the iterator is an exact [`ExactSizeIterator`] by construction (no
/// float-accumulation drift deciding when a segment ends) and every
/// breakpoint is hit bit-exactly.
#[derive(Debug, Clone)]
pub struct Iter<'a> {
    schedule: &'a FieldSchedule,
    segment: usize,
    segment_from: f64,
    steps_in_segment: usize,
    step_done: usize,
    emitted_start: bool,
    remaining: usize,
}

impl Iterator for Iter<'_> {
    type Item = f64;

    fn next(&mut self) -> Option<f64> {
        if !self.emitted_start {
            self.emitted_start = true;
            self.remaining = self.remaining.saturating_sub(1);
            return Some(self.segment_from);
        }
        loop {
            let target = *self.schedule.breakpoints.get(self.segment)?;
            if self.step_done >= self.steps_in_segment {
                // Segment finished (or empty): advance to the next one.
                self.segment_from = target;
                self.segment += 1;
                let next_target = *self.schedule.breakpoints.get(self.segment)?;
                self.steps_in_segment =
                    segment_steps(self.segment_from, next_target, self.schedule.step);
                self.step_done = 0;
                continue;
            }
            self.step_done += 1;
            self.remaining = self.remaining.saturating_sub(1);
            let value = if self.step_done == self.steps_in_segment {
                target
            } else {
                let direction = (target - self.segment_from).signum();
                self.segment_from + direction * self.step_done as f64 * self.schedule.step
            };
            return Some(value);
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for Iter<'_> {}

impl<'a> IntoIterator for &'a FieldSchedule {
    type Item = f64;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn rejects_invalid_parameters() {
        assert!(FieldSchedule::new(0.0, vec![100.0], 0.0).is_err());
        assert!(FieldSchedule::new(0.0, vec![], 1.0).is_err());
        assert!(FieldSchedule::new(f64::NAN, vec![100.0], 1.0).is_err());
        assert!(FieldSchedule::new(0.0, vec![f64::INFINITY], 1.0).is_err());
        assert!(FieldSchedule::major_loop(0.0, 1.0, 1).is_err());
        assert!(FieldSchedule::major_loop(100.0, 1.0, 0).is_err());
    }

    /// The name of the parameter an over-ceiling error blames.
    fn blamed(result: Result<FieldSchedule, WaveformError>) -> &'static str {
        match result {
            Err(WaveformError::InvalidParameter {
                name, requirement, ..
            }) => {
                assert!(requirement.contains("2^24 samples"), "{requirement}");
                name
            }
            other => panic!("expected the sample ceiling, got {other:?}"),
        }
    }

    #[test]
    fn new_enforces_the_sample_ceiling() {
        let at = FieldSchedule::new(0.0, vec![(MAX_SAMPLES - 1) as f64], 1.0).unwrap();
        assert_eq!(at.len(), MAX_SAMPLES);
        assert_eq!(
            blamed(FieldSchedule::new(0.0, vec![MAX_SAMPLES as f64], 1.0)),
            "step"
        );
        assert_eq!(
            blamed(FieldSchedule::new(0.0, vec![10_000.0], 1e-12)),
            "step"
        );
        // A span that overflows to infinity is still counted, not wrapped.
        assert_eq!(
            blamed(FieldSchedule::new(0.0, vec![f64::MAX, -f64::MAX], 1.0)),
            "step"
        );
    }

    #[test]
    fn major_loop_checks_the_ceiling_before_sizing_its_cycles() {
        for (peak, step, cycles, name) in [
            (10_000.0, 1e-12, 1, "step"),
            (10_000.0, 1e-300, 1, "step"),
            (1e300, 1.0, 1, "step"),
            (10_000.0, 10.0, 9_223_372_036_854_775_807, "cycles"),
            (10_000.0, 10.0, 10_000, "cycles"),
        ] {
            assert_eq!(
                blamed(FieldSchedule::major_loop(peak, step, cycles)),
                name,
                "peak={peak} step={step} cycles={cycles}"
            );
        }
        // A step that dwarfs the span still bounds the breakpoint vector.
        assert_eq!(
            blamed(FieldSchedule::major_loop(1e-300, 1e300, usize::MAX / 2)),
            "cycles"
        );
        // An invalid step is still reported as such, not as a size.
        assert!(matches!(
            FieldSchedule::major_loop(10_000.0, f64::NAN, usize::MAX),
            Err(WaveformError::InvalidParameter {
                name: "step",
                requirement: "finite and > 0",
                ..
            })
        ));
    }

    #[test]
    fn nested_minor_loops_enforce_the_sample_ceiling() {
        assert_eq!(
            blamed(FieldSchedule::nested_minor_loops(
                10_000.0,
                &[5_000.0],
                1e-6
            )),
            "step"
        );
    }

    #[test]
    fn biased_minor_loop_checks_the_ceiling_before_sizing_its_cycles() {
        assert_eq!(
            blamed(FieldSchedule::biased_minor_loop(
                1_000.0,
                500.0,
                4_611_686_018_427_387_904,
                10.0
            )),
            "cycles"
        );
        assert_eq!(
            blamed(FieldSchedule::biased_minor_loop(1_000.0, 500.0, 1, 1e-9)),
            "step"
        );
    }

    #[test]
    fn demagnetisation_stops_counting_at_the_ceiling() {
        // Without the in-loop check this decay would take ~1.4e13 cycles
        // to fall from 1e300 to 1e-300.
        let started = std::time::Instant::now();
        assert_eq!(
            blamed(FieldSchedule::demagnetisation(
                1e300,
                1e-300,
                0.999_999_999_9,
                1e299
            )),
            "decay"
        );
        assert!(started.elapsed() < std::time::Duration::from_secs(1));
        assert_eq!(
            blamed(FieldSchedule::demagnetisation(10_000.0, 100.0, 0.5, 1e-6)),
            "step"
        );
    }

    #[test]
    fn simple_ramp_hits_every_step() {
        let s = FieldSchedule::new(0.0, vec![5.0], 1.0).unwrap();
        assert_eq!(s.to_samples(), vec![0.0, 1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(s.len(), 6);
    }

    #[test]
    fn non_divisible_step_clamps_to_breakpoint() {
        let s = FieldSchedule::new(0.0, vec![2.5], 1.0).unwrap();
        let samples = s.to_samples();
        assert_eq!(samples.last().copied().unwrap(), 2.5);
        assert_eq!(samples.len(), 4); // 0, 1, 2, 2.5
    }

    #[test]
    fn major_loop_reaches_both_peaks() {
        let s = FieldSchedule::major_loop(10_000.0, 10.0, 2).unwrap();
        let samples = s.to_samples();
        let max = samples.iter().copied().fold(f64::MIN, f64::max);
        let min = samples.iter().copied().fold(f64::MAX, f64::min);
        assert_eq!(max, 10_000.0);
        assert_eq!(min, -10_000.0);
        assert_eq!(s.peak(), 10_000.0);
        // Iterator length must match len()
        assert_eq!(samples.len(), s.len());
    }

    #[test]
    fn nested_minor_loops_descend_in_amplitude() {
        let s =
            FieldSchedule::nested_minor_loops(10_000.0, &[7500.0, 5000.0, 2500.0], 10.0).unwrap();
        assert_eq!(s.breakpoints().len(), 3 + 6);
        let samples = s.to_samples();
        assert!(samples.iter().all(|h| h.abs() <= 10_000.0));
        // The tail of the schedule must stay within the smallest amplitude.
        let tail = &samples[samples.len() - 10..];
        assert!(tail.iter().all(|h| h.abs() <= 2500.0));
    }

    #[test]
    fn nested_minor_loops_reject_amplitude_above_peak() {
        assert!(FieldSchedule::nested_minor_loops(10_000.0, &[12_000.0], 10.0).is_err());
        assert!(FieldSchedule::nested_minor_loops(10_000.0, &[-1.0], 10.0).is_err());
    }

    #[test]
    fn biased_minor_loop_stays_around_bias() {
        let s = FieldSchedule::biased_minor_loop(5000.0, 1000.0, 2, 10.0).unwrap();
        let samples = s.to_samples();
        let max = samples.iter().copied().fold(f64::MIN, f64::max);
        let min = samples.iter().copied().fold(f64::MAX, f64::min);
        assert_eq!(max, 6000.0);
        assert_eq!(min, 0.0); // approach from zero
        assert!(FieldSchedule::biased_minor_loop(5000.0, 0.0, 2, 10.0).is_err());
        assert!(FieldSchedule::biased_minor_loop(5000.0, 100.0, 0, 10.0).is_err());
    }

    #[test]
    fn demagnetisation_decays_to_zero() {
        let s = FieldSchedule::demagnetisation(10_000.0, 100.0, 0.8, 10.0).unwrap();
        let samples = s.to_samples();
        assert_eq!(*samples.last().unwrap(), 0.0);
        assert!(s.breakpoints().len() > 10);
        assert!(FieldSchedule::demagnetisation(100.0, 10_000.0, 0.8, 10.0).is_err());
        assert!(FieldSchedule::demagnetisation(10_000.0, 100.0, 1.5, 10.0).is_err());
    }

    #[test]
    fn iterator_size_hint_is_exact() {
        let s = FieldSchedule::nested_minor_loops(10_000.0, &[2_500.0], 30.0).unwrap();
        let mut iter = s.iter();
        assert_eq!(iter.len(), s.len());
        let mut seen = 0usize;
        while iter.next().is_some() {
            seen += 1;
            assert_eq!(iter.len(), s.len() - seen);
        }
        assert_eq!(seen, s.len());
        assert_eq!(iter.size_hint(), (0, Some(0)));
    }

    #[test]
    fn iterator_length_matches_len_on_adversarial_breakpoints() {
        // A breakpoint one ulp above a step multiple used to make the
        // float-accumulating iterator emit one sample fewer than len()
        // (the residual fell under the old 1e-12 snap tolerance); the
        // step-counted iterator agrees with len() by construction.
        let s = FieldSchedule::new(0.0, vec![1.000_000_000_000_000_2], 0.5).unwrap();
        let samples = s.to_samples();
        assert_eq!(samples.len(), s.len());
        assert_eq!(*samples.last().unwrap(), 1.000_000_000_000_000_2);

        // Non-representable steps accumulate no drift either.
        let s = FieldSchedule::major_loop(10_000.0, 0.1, 1).unwrap();
        assert_eq!(s.to_samples().len(), s.len());
    }

    #[test]
    fn consecutive_samples_differ_by_at_most_step() {
        let s = FieldSchedule::nested_minor_loops(10_000.0, &[2500.0], 25.0).unwrap();
        let samples = s.to_samples();
        for w in samples.windows(2) {
            assert!((w[1] - w[0]).abs() <= 25.0 + 1e-9);
        }
    }

    proptest! {
        #[test]
        fn prop_schedule_visits_all_breakpoints(
            peak in 10.0_f64..100_000.0,
            step in 0.5_f64..500.0,
            cycles in 1usize..4,
        ) {
            let s = FieldSchedule::major_loop(peak, step, cycles).unwrap();
            let samples = s.to_samples();
            // Every breakpoint must appear exactly (within fp tolerance).
            for &bp in s.breakpoints() {
                prop_assert!(samples.iter().any(|&h| (h - bp).abs() < 1e-9));
            }
            prop_assert_eq!(samples.len(), s.len());
        }

        #[test]
        fn prop_step_bound_holds(
            peak in 10.0_f64..50_000.0,
            step in 0.5_f64..500.0,
        ) {
            let s = FieldSchedule::major_loop(peak, step, 1).unwrap();
            let samples = s.to_samples();
            for w in samples.windows(2) {
                prop_assert!((w[1] - w[0]).abs() <= step + 1e-9);
            }
        }
    }
}
